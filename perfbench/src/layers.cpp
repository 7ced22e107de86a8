/**
 * @file
 * The traced run's layer probes: each module's public functions timed,
 * inside a telemetry span, on inputs drawn from the seed, and reduced
 * to the per-layer table. The probes run the same way for every
 * workload; README.md names the end-to-end metric and workload each
 * one should move.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "analysis/plan_json.h"
#include "analysis/session.h"
#include "common/net.h"
#include "common/telemetry.h"
#include "cpu/trace_buffer.h"
#include "pipeline/models.h"
#include "pipeline/runner.h"
#include "power/energy_model.h"
#include "server/daemon.h"
#include "server/http.h"
#include "server/report_cache.h"
#include "sigcomp/sig_kernels.h"
#include "store/trace_store.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace sigcomp;

namespace
{

/** A span label that lives as long as the process (spans keep the pointer). */
const char *
spanLabel(const std::string &name)
{
    static std::set<std::string> labels;
    return labels.insert("perfbench." + name).first->c_str();
}

/** Sink that only receives blocks: the cost of materialising them. */
class NullSink : public cpu::TraceSink
{
  public:
    void retire(const cpu::DynInstr &) override {}
    void retireBlock(std::span<const cpu::DynInstr>) override {}
};

/** Sink collecting the result stream the significance kernels classify. */
class ResultSink : public cpu::TraceSink
{
  public:
    std::vector<Word> words;
    void retire(const cpu::DynInstr &di) override { words.push_back(di.result); }
};

/**
 * A pipeline config no earlier call used, so replays are never
 * answered from a trace's PipelineResult memo.
 */
pipeline::PipelineConfig
freshConfig(sig::Encoding enc = sig::Encoding::Ext3)
{
    static unsigned counter = 0;
    pipeline::PipelineConfig c = analysis::suiteConfig(enc);
    c.multCycles = 200 + counter++;
    return c;
}

} // namespace

void
runLayerProbes(const Options &opts, Outcome &out)
{
    SIGCOMP_SPAN("perfbench.layer_probes");
    const std::vector<std::string> &names = benchWorkloads();
    const std::string storeDir = opts.workDir + "/store";
    removeTree(storeDir);
    makeDirs(opts.workDir);
    const DWord limit = cpu::TraceBuffer::defaultMaxInstrs;
    Rng rng(opts.seed);

    // workloads + cpu: build each program, capture its trace.
    std::vector<workloads::Workload> progs;
    std::vector<std::shared_ptr<cpu::TraceBuffer>> traces;
    double instrs = 0.0, buildMs = 0.0, captureMs = 0.0;
    for (const std::string &n : names) {
        buildMs += timedMs("perfbench.workloads.build", [&] {
            progs.push_back(workloads::Suite::build(n));
        });
        captureMs += timedMs("perfbench.cpu.capture", [&] {
            traces.push_back(std::make_shared<cpu::TraceBuffer>(
                cpu::TraceBuffer::capture(progs.back().program, limit)));
        });
        instrs += static_cast<double>(traces.back()->size());
    }
    out.layer("workloads.build_ms", "ms", buildMs);
    out.layer("cpu.capture_ms", "ms", captureMs);
    out.layer("cpu.capture_minstr_per_s", "Minstr/s",
              instrs / captureMs / 1e3);

    // store: save every segment (fsync included), then load it back.
    double loadMs = 0.0;
    {
        const store::TraceStore st(storeDir);
        double saveMs = 0.0, segmentBytes = 0.0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            saveMs += timedMs("perfbench.store.save", [&] {
                if (!st.save(names[i], *traces[i], limit))
                    out.fail("store save of " + names[i] + " failed");
            });
            std::error_code ec;
            segmentBytes += static_cast<double>(
                std::filesystem::file_size(st.segmentPath(names[i]), ec));
        }
        traces.clear();
        for (std::size_t i = 0; i < names.size(); ++i) {
            loadMs += timedMs("perfbench.store.load", [&] {
                traces.push_back(st.load(names[i], progs[i].program, limit));
            });
            if (traces.back() == nullptr) {
                out.fail("store load of " + names[i] + " failed");
                return;
            }
        }
        const store::StoreStats stats = store::aggregateStats(st);
        out.layer("store.save_ms", "ms", saveMs);
        out.layer("store.save_mb_per_s", "MB/s", segmentBytes / saveMs / 1e3);
        out.layer("store.load_ms", "ms", loadMs);
        out.layer("store.load_mb_per_s", "MB/s", segmentBytes / loadMs / 1e3);
        out.layer("store.segment_bytes", "bytes",
                  static_cast<double>(stats.fileBytes));
        out.layer("store.compression_ratio", "ratio", stats.totalRatio());
    }

    // cpu: block materialisation alone.
    double replayBlockMs = 0.0;
    for (const auto &t : traces) {
        NullSink sink;
        replayBlockMs += timedMs("perfbench.cpu.replay_block",
                                 [&] { cpu::TraceView(*t).replay(sink); });
    }
    out.layer("cpu.replay_block_ms", "ms", replayBlockMs);

    // sigcomp: block kernels over the traces' result stream.
    {
        ResultSink results;
        for (const auto &t : traces)
            cpu::TraceView(*t).replay(results);
        const std::vector<Word> &w = results.words;
        std::vector<sig::ByteMask> masks(w.size());
        std::vector<std::uint8_t> bytes(w.size());
        constexpr int kReps = 10;
        const double classifyMs = timedMs("perfbench.sigcomp.classify_ext3", [&] {
            for (int r = 0; r < kReps; ++r)
                sig::classifyExt3Block(w.data(), w.size(), masks.data());
        });
        const double bytesMs =
            timedMs("perfbench.sigcomp.significant_bytes", [&] {
                for (int r = 0; r < kReps; ++r)
                    sig::significantBytesBlock(w.data(), w.size(),
                                               bytes.data());
            });
        const double mwords = kReps * static_cast<double>(w.size()) / 1e6;
        out.layer("sigcomp.classify_ext3_mwords_per_s", "Mword/s",
                  mwords / (classifyMs / 1e3));
        out.layer("sigcomp.significant_bytes_mwords_per_s", "Mword/s",
                  mwords / (bytesMs / 1e3));
    }

    // pipeline: the first consumer of a fresh trace computes its
    // SharedQuanta; a later consumer (another config) reuses them.
    double quantaMs = 0.0;
    for (const auto &t : traces) {
        const auto baseline = [&] {
            (void)pipeline::replayDesigns(*t, {pipeline::Design::Baseline32},
                                          freshConfig());
        };
        quantaMs += timedMs("perfbench.pipeline.first_consumer", baseline);
        quantaMs -= timedMs("perfbench.pipeline.later_consumer", baseline);
    }
    out.layer("pipeline.quanta_ms", "ms", quantaMs);

    // pipeline: each design's consumer loop alone, memo bypassed.
    double partsMs = loadMs + quantaMs;
    std::vector<pipeline::PipelineResult> energyInputs;
    for (pipeline::Design d : pipeline::allDesigns()) {
        const char *label =
            spanLabel("pipeline.replay." + pipeline::designName(d));
        double designMs = 0.0;
        for (const auto &t : traces) {
            std::vector<pipeline::PipelineResult> r;
            designMs += timedMs(label, [&] {
                r = pipeline::replayDesigns(*t, {d}, freshConfig());
            });
            if (d == pipeline::Design::ByteSerial)
                energyInputs.push_back(r.front());
        }
        out.layer("pipeline.ns_per_instr." + pipeline::designName(d),
                  "ns/instr", designMs * 1e6 / instrs);
        partsMs += designMs;
    }
    // The paper plan's Half1 activity pipeline (a part of its fused pass).
    for (const auto &t : traces)
        partsMs += timedMs("perfbench.pipeline.replay.activity_half1", [&] {
            (void)pipeline::replayDesigns(*t, {pipeline::Design::HalfwordSerial},
                                          freshConfig(sig::Encoding::Half1));
        });

    // analysis: each profiler sink alone.
    {
        const char *keys[] = {"pattern", "mix", "pc"};
        double sinkMs[3] = {0.0, 0.0, 0.0};
        for (const auto &t : traces) {
            PaperSinks sinks;
            cpu::TraceSink *each[] = {&sinks.pattern, &sinks.mix, &sinks.pc};
            for (int k = 0; k < 3; ++k)
                sinkMs[k] += timedMs(
                    spanLabel(std::string("analysis.sink.") + keys[k]),
                    [&] { cpu::TraceView(*t).replay(*each[k]); });
        }
        for (int k = 0; k < 3; ++k) {
            out.layer(std::string("analysis.sink_ns_per_instr.") + keys[k],
                      "ns/instr", sinkMs[k] * 1e6 / instrs);
            partsMs += sinkMs[k];
        }
    }

    // power: the energy model per (workload) row.
    {
        constexpr int kCalls = 2000;
        const double energyUs =
            timedMs("perfbench.power.energy_report", [&] {
                for (int i = 0; i < kCalls; ++i)
                    (void)power::buildEnergyReport(
                        energyInputs[static_cast<std::size_t>(i) %
                                     energyInputs.size()]
                            .activity);
            }) *
            1e3 / kCalls;
        out.layer("power.energy_report_us", "us", energyUs);
        partsMs += energyUs / 1e3 * static_cast<double>(names.size());
    }

    // analysis: the fused paper plan on a fresh Session over the store,
    // against the sum of its parts measured alone above.
    analysis::SuiteReport paper;
    {
        analysis::Session session({.storeDir = storeDir, .readOnly = true});
        PaperSinks sinks;
        const analysis::StudyPlan plan = paperPlan(&sinks);
        const double runMs = timedMs("perfbench.analysis.session_run",
                                     [&] { paper = session.run(plan); });
        out.layer("analysis.session_run_ms", "ms", runMs);
        out.layer("analysis.fusion_ratio", "ratio", runMs / partsMs);
    }
    out.layer("analysis.captures", "count", static_cast<double>(paper.captures));
    out.layer("analysis.store_loads", "count",
              static_cast<double>(paper.storeLoads));
    out.layer("analysis.replay_passes", "count",
              static_cast<double>(paper.replayPasses));

    // analysis/common: how fully the executor keeps its threads busy on
    // a CPI plan of every design over every trace, from the
    // per-workload replays run one at a time.
    {
        analysis::Session session({.storeDir = storeDir, .readOnly = true});
        analysis::StudyPlan warm;
        warm.cpi(pipeline::allDesigns(), freshConfig()).workloads(names);
        (void)session.run(warm);
        const pipeline::PipelineConfig serialCfg = freshConfig();
        double serialMs = 0.0;
        for (const std::string &n : names) {
            const analysis::TraceCache::TracePtr t = session.trace(n);
            serialMs += timedMs("perfbench.analysis.workload_replay", [&] {
                (void)pipeline::replayDesigns(*t, pipeline::allDesigns(),
                                              serialCfg);
            });
        }
        analysis::StudyPlan sweep;
        sweep.cpi(pipeline::allDesigns(), freshConfig()).workloads(names);
        const double sweepMs = timedMs("perfbench.analysis.sweep_run",
                                       [&] { (void)session.run(sweep); });
        out.layer("analysis.parallel_utilisation", "ratio",
                  serialMs / (session.executor().threadCount() * sweepMs));
    }

    // analysis: report serialisation and plan ingestion.
    {
        std::string json;
        std::vector<double> ms;
        for (int i = 0; i < 20; ++i)
            ms.push_back(timedMs("perfbench.analysis.report_json",
                                 [&] { json = paper.toJson(); }));
        out.layer("analysis.report_json_ms", "ms", median(ms));
        out.layer("analysis.report_bytes", "bytes",
                  static_cast<double>(json.size()));
    }
    std::string planJson;
    {
        const std::size_t first = rng() % names.size();
        const std::size_t second =
            (first + 1 + rng() % (names.size() - 1)) % names.size();
        analysis::StudyPlan plan;
        plan.cpi(pipeline::allDesigns(), freshConfig())
            .workloads({names[first], names[second]});
        analysis::writePlanJson(plan, &planJson, nullptr);
        constexpr int kCalls = 2000;
        analysis::StudyPlan parsed;
        const double parseMs = timedMs("perfbench.analysis.plan_parse", [&] {
            for (int i = 0; i < kCalls; ++i)
                if (!analysis::parsePlanJson(planJson, &parsed, nullptr))
                    out.fail("plan JSON does not parse");
        });
        std::string hex;
        const double fingerprintMs =
            timedMs("perfbench.analysis.plan_fingerprint", [&] {
                for (int i = 0; i < kCalls; ++i)
                    (void)analysis::planFingerprint(parsed, &hex, nullptr);
            });
        out.layer("analysis.plan_parse_us", "us", parseMs * 1e3 / kCalls);
        out.layer("analysis.plan_fingerprint_us", "us",
                  fingerprintMs * 1e3 / kCalls);
    }

    // server: HTTP parsing and the report cache.
    const std::string post = httpPost("tenant0", planJson);
    {
        constexpr int kCalls = 5000;
        const double parseMs = timedMs("perfbench.server.http_parse", [&] {
            for (int i = 0; i < kCalls; ++i) {
                server::HttpRequestParser parser;
                if (parser.consume(post) !=
                    server::HttpRequestParser::Status::Done)
                    out.fail("HTTP request does not parse");
            }
        });
        out.layer("server.http_parse_us", "us", parseMs * 1e3 / kCalls);
    }
    {
        telemetry::Registry registry;
        server::ReportCache cache(64, std::size_t{64} << 20, &registry);
        const std::string body = paper.toJson();
        for (int i = 0; i < 64; ++i)
            cache.insert("key" + std::to_string(i), body);
        constexpr int kCalls = 5000;
        std::string got;
        const double lookupMs = timedMs("perfbench.server.cache_lookup", [&] {
            for (int i = 0; i < kCalls; ++i)
                if (!cache.lookup("key" + std::to_string(i % 64), &got))
                    out.fail("report cache lost an entry");
        });
        out.layer("server.cache_lookup_us", "us", lookupMs * 1e3 / kCalls);
    }

    // server: Daemon::serveConn in process over memory connections, per
    // route; then the same daemon over loopback TCP.
    server::Daemon daemon({.storeDir = storeDir, .threads = 1});
    auto serveMemory = [&](const std::string &request) {
        auto [client, conn] = net::memoryConnPair();
        client->writeAll(request.data(), request.size());
        daemon.serveConn(std::shared_ptr<net::Conn>(std::move(conn)));
        std::string response;
        char buf[16384];
        std::size_t got = 0;
        while (client->read(buf, sizeof(buf), &got).ok() && got > 0)
            response.append(buf, got);
        return response;
    };
    const struct
    {
        const char *route;
        int calls;
    } routes[] = {{"hit", 300}, {"run", 10}, {"healthz", 300}, {"statsz", 300}};
    (void)serveMemory(post); // the hit route's plan is now cached
    double memoryHitUs = 0.0;
    for (const auto &route : routes) {
        const char *label =
            spanLabel(std::string("server.serve_conn.") + route.route);
        std::vector<double> ms;
        for (int i = 0; i < route.calls; ++i) {
            std::string request;
            if (std::string(route.route) == "hit") {
                request = post;
            } else if (std::string(route.route) == "run") {
                analysis::StudyPlan plan;
                plan.cpi(pipeline::allDesigns(), freshConfig())
                    .workloads({names[rng() % names.size()]});
                std::string json;
                analysis::writePlanJson(plan, &json, nullptr);
                request = httpPost("tenant1", json);
            } else {
                request = httpGet(std::string("/") + route.route);
            }
            std::string response;
            ms.push_back(
                timedMs(label, [&] { response = serveMemory(request); }));
            if (response.compare(0, 12, "HTTP/1.1 200") != 0)
                out.fail(std::string("in-process ") + route.route +
                         " request failed");
        }
        const double us = median(ms) * 1e3;
        if (std::string(route.route) == "hit")
            memoryHitUs = us;
        out.layer(std::string("server.serve_conn_us.") + route.route, "us", us);
    }

    {
        std::string why;
        std::unique_ptr<net::Listener> listener =
            net::listenTcp("127.0.0.1", 0, &why);
        if (listener == nullptr) {
            out.fail("cannot listen: " + why);
            return;
        }
        const std::uint16_t port = listener->port();
        std::thread serving([&] { daemon.serve(*listener); });
        std::vector<double> tcpMs;
        for (int i = 0; i < 300; ++i) {
            int status = 0;
            tcpMs.push_back(timedMs("perfbench.server.tcp_hit", [&] {
                status = httpCall(port, post).status;
            }));
            if (status != 200)
                out.fail("TCP hit failed");
        }
        out.layer("server.tcp_overhead_us", "us",
                  median(tcpMs) * 1e3 - memoryHitUs);

        // The leak slope: resident memory left behind per thousand
        // requests by a daemon serving over TCP.
        constexpr int kRequests = 2000;
        const std::uint64_t before = procStatusKb(getpid(), "VmRSS");
        timedMs("perfbench.server.leak_requests", [&] {
            for (int i = 0; i < kRequests; ++i)
                if (httpCall(port, httpGet("/healthz")).status != 200)
                    out.fail("TCP healthz failed");
        });
        const std::uint64_t after = procStatusKb(getpid(), "VmRSS");
        out.layer("server.rss_kb_per_krequest", "kB/kreq",
                  (static_cast<double>(after) - static_cast<double>(before)) /
                      (kRequests / 1000.0));

        // Workloads without a daemon of their own take the /statsz
        // deltas, ratios and generator lateness from a short serve_mix
        // schedule against this one.
        if (opts.workload != "serve_mix")
            serveMixProbe(opts, storeDir, port, out);

        daemon.requestStop();
        listener->stopListening();
        serving.join();
    }
    removeTree(storeDir);
}

} // namespace perfbench
