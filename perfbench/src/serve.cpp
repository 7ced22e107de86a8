/**
 * @file
 * serve_mix: open-loop traffic against a fresh sigcompd child over
 * loopback TCP. Independent users send a seeded mix of report-cache
 * hits, dedupe joins, distinct warm runs, health/stats probes and
 * mid-run hangups at a fixed offered rate through at most four
 * connections; every request is timed from its due time.
 */

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "analysis/plan_json.h"
#include "analysis/session.h"
#include "pipeline/models.h"
#include "workloads.h"

namespace perfbench
{

using namespace sigcomp;

namespace
{

// Offered rate of the open-loop chunks: the end-to-end latencies and
// the daemon's memory come from a request count fixed by --seconds,
// so daemon memory compares across commits.
constexpr double kOfferedRps = 200.0;
// One timed round: an open-loop chunk of kChunkSlots slots (2 s at the
// offered rate), one saturation window and one cold plan, about
// kRoundSeconds in all. The run holds seconds / kRoundSeconds rounds.
constexpr std::size_t kChunkSlots = 400;
constexpr double kRoundSeconds = 3.2;
// Generator concurrency: one connection per core, one of them for
// the cheap requests and the rest for engine requests.
constexpr unsigned kConnections = 4;
constexpr unsigned kTenants = 4;
// Designs per served plan: enough to reach the engine, few enough
// that runs rarely overlap at the offered rate.
constexpr double kPlanDesigns = 2;
// Plans answered once in set-up whose repeats are the cache hits.
constexpr unsigned kHotPlans = 16;
// The latency limit of the serve_max_rps ladder, on the p99 of all
// answered requests of a rung; rungs are fractions of the measured
// saturation throughput.
constexpr double kP99LimitMs = 250.0;
constexpr double kLadder[] = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
constexpr double kRungSeconds = 0.4;
// Slots of one closed-loop saturation window (about 0.4 s).
constexpr std::size_t kSaturationSlots = 600;
// How long the traffic guard waits for the daemon to count the last
// POSTs of a phase.
constexpr double kStatszSettleMs = 2000.0;

enum class Kind
{
    Hit,
    Join,
    Run,
    Health,
    Stats,
    Hangup
};

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::Hit:
        return "hit";
    case Kind::Join:
        return "join";
    case Kind::Run:
        return "run";
    case Kind::Health:
        return "healthz";
    case Kind::Stats:
        return "statsz";
    case Kind::Hangup:
        return "hangup";
    }
    return "?";
}

/**
 * One block of the mix, in slots: every block of kBlockSlots slots
 * holds exactly these kinds, shuffled by the seed, so every seed
 * offers the same composition. A join slot sends 2-3 members at once.
 */
struct MixSlots
{
    Kind kind;
    unsigned slots;
};
constexpr MixSlots kMix[] = {
    {Kind::Hit, 40},   {Kind::Run, 4},   {Kind::Join, 1},
    {Kind::Health, 3}, {Kind::Stats, 1}, {Kind::Hangup, 1},
};
constexpr unsigned kBlockSlots = 50;

struct Request
{
    double dueMs = 0.0;
    Kind kind = Kind::Hit;
    /** Index into the hot plans (Hit) or the new plans (others). */
    std::size_t plan = 0;
    /** Join group id (members share it), else 0. */
    std::size_t group = 0;
    std::string wire;
};

struct Response
{
    HttpReply reply;
    double latencyMs = 0.0;
    double lateMs = 0.0;
};

/**
 * Distinct plans of two designs over 1-3 workloads at configs never
 * used before. The workloads are taken in turn from the suite, from a
 * seeded starting point, and the plan sizes, design pairs and
 * predictors cycle, so every run of the benchmark sees the same mix of
 * plan costs whatever its seed; the seed draws the other config
 * fields.
 */
class PlanSource
{
  public:
    explicit PlanSource(std::uint64_t seed)
        : rng_(seed), cursor_(seed % benchWorkloads().size())
    {}

    /** The next plan, as sigcomp-study-plan-v1 JSON. */
    std::string
    next()
    {
        static const pipeline::PredictorKind kinds[] = {
            pipeline::PredictorKind::None, pipeline::PredictorKind::NotTaken,
            pipeline::PredictorKind::Bimodal};
        const std::vector<pipeline::Design> all = pipeline::allDesigns();
        const std::size_t nw = 1 + count_ % 3;
        pipeline::PipelineConfig c = analysis::suiteConfig();
        c.predictor = kinds[(count_ / 3) % 3];
        // Every ordered pair of distinct designs, in turn.
        const std::size_t n = all.size();
        const std::vector<pipeline::Design> designs = {
            all[count_ % n], all[(count_ + 1 + (count_ / n) % (n - 1)) % n]};
        ++count_;
        // The first workload advances by one per plan; with 3 plan
        // sizes and 14 workloads (coprime), every workload leads a
        // plan of every size once per 42 plans.
        const std::vector<std::string> &suite = benchWorkloads();
        std::vector<std::string> names;
        for (std::size_t w = 0; w < nw; ++w)
            names.push_back(suite[(cursor_ + w) % suite.size()]);
        ++cursor_;
        for (;;) {
            c.multCycles = 1 + static_cast<unsigned>(rng_() % 64);
            c.divCycles = 4 + static_cast<unsigned>(rng_() % 64);
            c.phtEntries = 64u << (rng_() % 7);
            c.btbEntries = 16u << (rng_() % 7);
            analysis::StudyPlan plan;
            plan.cpi(designs, c).workloads(names);
            std::string json;
            if (analysis::writePlanJson(plan, &json, nullptr) &&
                used_.insert(json).second)
                return json;
        }
    }

  private:
    Rng rng_;
    std::size_t cursor_;
    std::size_t count_ = 0;
    std::set<std::string> used_;
};

std::string
tenantName(std::size_t i)
{
    return "tenant" + std::to_string(i % kTenants);
}

/** Set-up state shared by the measurement phases. */
struct ServeState
{
    std::string store;
    Child daemon;
    std::uint16_t port = 0;
    std::vector<std::string> hotPlans;
    std::vector<std::string> hotBodies;
    /** Hot plans first, then every new plan of the run. */
    std::unique_ptr<PlanSource> plans;
    /** The new plans of every schedule so far, by Request::plan. */
    std::vector<std::string> newPlans;
    /** Join groups handed out so far. */
    std::size_t groups = 0;
};

/**
 * Start sigcompd on an ephemeral port. Each tenant runs a plan on the
 * handler thread (--threads 1): requests get their parallelism from
 * concurrent connections, not from fanning one plan out over a pool
 * (the pooled cold plans use one), which also keeps short runs from
 * timing the host's thread wake-up latency.
 */
bool
startDaemon(const Options &opts, ServeState *st)
{
    st->daemon = spawnChild({opts.sigcompd, "--dir", st->store, "--port", "0",
                             "--threads", "1"},
                            true);
    if (st->daemon.pid <= 0)
        return false;
    std::string line;
    while (readLine(st->daemon.stdoutFd, &line, 60000)) {
        const std::size_t at = line.find("serving on ");
        if (at == std::string::npos)
            continue;
        st->port = static_cast<std::uint16_t>(
            std::atoi(line.c_str() + line.rfind(':') + 1));
        break;
    }
    for (int i = 0; st->port != 0 && i < 200; ++i) {
        const HttpReply r = httpCall(st->port, httpGet("/healthz"));
        if (r.transportOk && r.status == 200 && r.body == "ok\n")
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/** SIGTERM the daemon; true when it exits 0 in time. */
bool
stopDaemon(ServeState *st)
{
    if (st->daemon.pid <= 0)
        return false;
    kill(st->daemon.pid, SIGTERM);
    return waitChild(st->daemon, 60000) == 0;
}

void primeDaemon(std::uint64_t seed, ServeState *st, Outcome *out);

/**
 * The cold plan: CPI of every design over every workload on a fresh
 * Session writing to the empty store @p dir. Returns its time in ms.
 */
double
prewarmStore(const std::string &dir)
{
    analysis::Session prewarm({.storeDir = dir});
    analysis::StudyPlan plan;
    plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
        .workloads(benchWorkloads());
    return timedMs("perfbench.cold_plan", [&] { (void)prewarm.run(plan); });
}

SetupSample
setupServe(const Options &opts, ServeState *st, Outcome *out)
{
    const Clock::time_point t0 = Clock::now();
    timedMs("perfbench.suite_config", [] { (void)analysis::suiteConfig(); });
    st->store = opts.workDir + "/store";
    removeTree(st->store);
    makeDirs(opts.workDir);
    const double coldMs = prewarmStore(st->store);
    bool started = false;
    timedMs("perfbench.daemon_start",
            [&] { started = startDaemon(opts, st); });
    if (!started) {
        out->fail("sigcompd did not start");
        return {};
    }
    primeDaemon(opts.seed, st, out);
    return {msSince(t0) / 1000.0, coldMs};
}

/**
 * Make every tenant hold every trace, so the runs they serve are warm
 * runs, and answer the hot plans once, so their repeats are hits.
 */
void
primeDaemon(std::uint64_t seed, ServeState *st, Outcome *out)
{
    for (unsigned t = 0; t < kTenants; ++t) {
        SIGCOMP_SPAN("perfbench.prime_tenant");
        pipeline::PipelineConfig c = analysis::suiteConfig();
        c.multCycles = 100 + t;
        analysis::StudyPlan plan;
        plan.cpi({pipeline::Design::ByteSerial}, c).workloads(benchWorkloads());
        std::string json;
        analysis::writePlanJson(plan, &json, nullptr);
        const HttpReply r = httpCall(st->port, httpPost(tenantName(t), json));
        if (!r.transportOk || r.status != 200)
            out->fail("priming tenant " + std::to_string(t) + " failed");
    }
    st->plans = std::make_unique<PlanSource>(seed);
    for (unsigned i = 0; i < kHotPlans; ++i) {
        st->hotPlans.push_back(st->plans->next());
        SIGCOMP_SPAN("perfbench.prime_plan");
        const HttpReply r =
            httpCall(st->port, httpPost(tenantName(i), st->hotPlans.back()));
        if (!r.transportOk || r.status != 200 || studyBytes(r.body).empty())
            out->fail("priming plan " + std::to_string(i) + " failed");
        st->hotBodies.push_back(r.body);
    }
}

/**
 * Ask every hot plan once more, before each open-loop chunk and ladder
 * rung. An overloaded ladder rung leaves a backlog of runs behind its
 * last hit, and their answers can push hot plans out of the daemon's
 * LRU report cache (64 entries by default).
 * A hot plan evicted that way runs again here; its new answer, with
 * the same study rows and a new wall time, is the one later hits must
 * equal byte for byte.
 */
void
refreshHotPlans(ServeState &st, Outcome &out)
{
    for (std::size_t i = 0; i < st.hotPlans.size(); ++i) {
        const HttpReply r =
            httpCall(st.port, httpPost(tenantName(i), st.hotPlans[i]));
        ++out.attempted;
        if (!r.transportOk || r.status != 200 || studyBytes(r.body).empty() ||
            studyBytes(r.body) != studyBytes(st.hotBodies[i]))
            out.fail("hot plan " + std::to_string(i) +
                     " changed its study rows when asked again");
        else
            st.hotBodies[i] = r.body;
    }
}

/**
 * The seeded schedule: @p slots request slots @p 1000/rps ms apart,
 * kinds from kMix blocks (a join slot expands to 2-3 members due at
 * the same time).
 */
std::vector<Request>
makeSchedule(Rng &rng, ServeState &st, double rps, std::size_t slots)
{
    std::vector<Kind> block;
    for (const MixSlots &m : kMix)
        block.insert(block.end(), m.slots, m.kind);
    std::vector<Request> reqs;
    for (std::size_t i = 0; i < slots; ++i) {
        if (i % kBlockSlots == 0)
            std::shuffle(block.begin(), block.end(), rng);
        Request r;
        r.dueMs = 1000.0 * static_cast<double>(i) / rps;
        r.kind = block[i % kBlockSlots];
        const std::string tenant = tenantName(rng());
        switch (r.kind) {
        case Kind::Hit:
            r.plan = rng() % st.hotPlans.size();
            r.wire = httpPost(tenant, st.hotPlans[r.plan]);
            reqs.push_back(r);
            break;
        case Kind::Run:
        case Kind::Hangup:
            r.plan = st.newPlans.size();
            st.newPlans.push_back(st.plans->next());
            r.wire = httpPost(tenant, st.newPlans.back());
            reqs.push_back(r);
            break;
        case Kind::Join: {
            r.plan = st.newPlans.size();
            st.newPlans.push_back(st.plans->next());
            r.group = ++st.groups;
            const std::size_t members = 2 + rng() % 2;
            for (std::size_t m = 0; m < members; ++m) {
                r.wire = httpPost(tenantName(rng()), st.newPlans.back());
                reqs.push_back(r);
            }
            break;
        }
        case Kind::Health:
            r.wire = httpGet("/healthz");
            reqs.push_back(r);
            break;
        case Kind::Stats:
            r.wire = httpGet("/statsz");
            reqs.push_back(r);
            break;
        }
    }
    return reqs;
}

/**
 * Send @p reqs. Open loop (the default): each request waits for its
 * due time; cheap requests (hits, health, stats) and engine requests
 * (runs, joins, hangups) come from different users, so each class has
 * its own connections and in-order queue and a hit never waits in the
 * generator behind a run. Closed loop: all kConnections connections
 * take the requests in order, each sending its next as soon as its
 * last was answered. Latency counts from the due time (open) or the
 * send (closed).
 */
std::vector<Response>
sendSchedule(std::uint16_t port, const std::vector<Request> &reqs,
             bool closedLoop = false)
{
    std::vector<Response> out(reqs.size());
    std::vector<std::size_t> queues[2];
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Kind k = reqs[i].kind;
        const bool engine =
            k == Kind::Run || k == Kind::Join || k == Kind::Hangup;
        queues[engine && !closedLoop ? 1 : 0].push_back(i);
    }
    std::atomic<std::size_t> next[2] = {0, 0};
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    auto worker = [&](int q) {
        for (;;) {
            const std::size_t n = next[q].fetch_add(1);
            if (n >= queues[q].size())
                return;
            const std::size_t i = queues[q][n];
            const Request &r = reqs[i];
            Clock::time_point due = Clock::now();
            if (!closedLoop) {
                due = t0 + std::chrono::microseconds(
                               static_cast<std::int64_t>(r.dueMs * 1000.0));
                std::this_thread::sleep_until(due);
            }
            SIGCOMP_SPAN("perfbench.request");
            out[i].lateMs = std::max(0.0, msSince(due));
            if (r.kind == Kind::Hangup)
                httpHangup(port, r.wire, 2);
            else
                out[i].reply = httpCall(port, r.wire);
            out[i].latencyMs = msSince(due);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c)
        threads.emplace_back(worker, c == 0 || closedLoop ? 0 : 1);
    for (std::thread &t : threads)
        t.join();
    return out;
}

/** The checked answers of a schedule, by outcome class. */
struct Answers
{
    std::vector<double> hitMs;
    std::vector<double> runMs; ///< runs and joins
    /**
     * Simulated work of each run or join (its trace instructions x
     * kPlanDesigns) per ms of its latency, in Minstr/s.
     */
    std::vector<double> runMinstrPerS;
    std::vector<double> allMs; ///< every answered request
    std::vector<double> lateMs;
    /** Body of each answered run or join, by Request::plan. */
    std::map<std::size_t, std::string> runBodies;
};

/**
 * Check every answer of a schedule, counting attempts and failures
 * into @p out. Intentional hangups are left out of both counts.
 */
Answers
checkResponses(const ServeState &st, const std::vector<Request> &reqs,
               const std::vector<Response> &resp, Outcome &out)
{
    Answers a;
    std::map<std::size_t, std::string> groupBody;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        a.lateMs.push_back(resp[i].lateMs);
        if (r.kind == Kind::Hangup)
            continue;
        const HttpReply &h = resp[i].reply;
        ++out.attempted;
        if (!h.transportOk || h.status != 200) {
            out.fail(std::string(kindName(r.kind)) + " request " +
                     std::to_string(i) + " answered " +
                     std::to_string(h.status));
            continue;
        }
        bool ok = true;
        switch (r.kind) {
        case Kind::Hit:
            ok = h.body == st.hotBodies[r.plan];
            break;
        case Kind::Join:
        case Kind::Run:
            ok = !studyBytes(h.body).empty() &&
                 h.body.find("\"cancelled\": false") != std::string::npos;
            if (ok && r.kind == Kind::Join) {
                auto [it, first] = groupBody.emplace(r.group, h.body);
                ok = first || it->second == h.body;
            }
            break;
        case Kind::Health:
            ok = h.body == "ok\n";
            break;
        case Kind::Stats:
            ok = h.body.find("sigcomp-daemon-stats-v1") != std::string::npos;
            break;
        case Kind::Hangup:
            break;
        }
        if (!ok) {
            out.fail(std::string(kindName(r.kind)) + " request " +
                     std::to_string(i) + " returned a wrong body");
            continue;
        }
        if (r.kind == Kind::Hit)
            a.hitMs.push_back(resp[i].latencyMs);
        if (r.kind == Kind::Run || r.kind == Kind::Join) {
            a.runMs.push_back(resp[i].latencyMs);
            const std::size_t at = h.body.find("\"instructions\": ");
            if (at != std::string::npos)
                a.runMinstrPerS.push_back(
                    std::strtod(h.body.c_str() + at + 16, nullptr) *
                    kPlanDesigns / resp[i].latencyMs / 1e3);
            a.runBodies.emplace(r.plan, h.body);
        }
        a.allMs.push_back(resp[i].latencyMs);
    }
    return a;
}

/** The /statsz counters a phase reports the deltas of. */
const char *const kStatszCounters[] = {
    "daemon.requests",           "daemon.runs",
    "daemon.dedupe_joins",       "daemon.report_cache_hits",
    "daemon.report_cache_misses", "daemon.disconnect_cancels",
    "daemon.http_errors"};

/**
 * Open-loop traffic: its schedule, answers and /statsz deltas. One
 * chunk, or the sum of a run's chunks (merge).
 */
struct Phase
{
    std::vector<Request> reqs;
    Answers answers;
    /** Requests sent, by kind (join members counted each). */
    std::map<Kind, double> sentByKind;
    double posts = 0.0;
    /** Join groups, each led by one run. */
    double leaders = 0.0;
    /** /statsz counter deltas over the traffic, by kStatszCounters name. */
    std::map<std::string, double> deltas;

    double
    sent(Kind k) const
    {
        const auto it = sentByKind.find(k);
        return it == sentByKind.end() ? 0.0 : it->second;
    }

    double
    delta(const std::string &name) const
    {
        const auto it = deltas.find(name);
        return it == deltas.end() ? 0.0 : it->second;
    }

    /** Add chunk @p c's traffic, answers and deltas to this phase. */
    void
    merge(const Phase &c)
    {
        reqs.insert(reqs.end(), c.reqs.begin(), c.reqs.end());
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(answers.hitMs, c.answers.hitMs);
        append(answers.runMs, c.answers.runMs);
        append(answers.runMinstrPerS, c.answers.runMinstrPerS);
        append(answers.allMs, c.answers.allMs);
        append(answers.lateMs, c.answers.lateMs);
        answers.runBodies.insert(c.answers.runBodies.begin(),
                                 c.answers.runBodies.end());
        for (const auto &[k, n] : c.sentByKind)
            sentByKind[k] += n;
        posts += c.posts;
        leaders += c.leaders;
        for (const auto &[name, d] : c.deltas)
            deltas[name] += d;
    }
};

/**
 * Send one chunk of @p slots slots of the mix at kOfferedRps, check the
 * answers and apply the traffic guard: every POST, hangups included,
 * is exactly one of run, dedupe join or cache hit in the /statsz
 * deltas.
 */
Phase
runOpenLoop(ServeState &st, Rng &rng, std::size_t slots, Outcome &out)
{
    Phase p;
    p.reqs = makeSchedule(rng, st, kOfferedRps, slots);
    std::set<std::size_t> groups;
    for (const Request &r : p.reqs) {
        p.sentByKind[r.kind] += 1.0;
        if (r.kind != Kind::Health && r.kind != Kind::Stats)
            p.posts += 1.0;
        if (r.kind == Kind::Join)
            groups.insert(r.group);
    }
    p.leaders = static_cast<double>(groups.size());

    const std::string before = httpCall(st.port, httpGet("/statsz")).body;
    const std::vector<Response> resp = sendSchedule(st.port, p.reqs);
    // A hangup's client returns 2 ms after sending, possibly before
    // the daemon has accepted and classified its POST; give the
    // daemon a moment to catch up before applying the guard.
    std::string after;
    const auto answered = [&] {
        double n = 0.0;
        for (const char *c : {"daemon.runs", "daemon.dedupe_joins",
                              "daemon.report_cache_hits"})
            n += static_cast<double>(statszCounter(after, c) -
                                     statszCounter(before, c));
        return n;
    };
    const Clock::time_point polled = Clock::now();
    for (;;) {
        after = httpCall(st.port, httpGet("/statsz")).body;
        if (after.empty() || answered() >= p.posts ||
            msSince(polled) > kStatszSettleMs)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const char *c : kStatszCounters)
        p.deltas[c] = static_cast<double>(statszCounter(after, c) -
                                          statszCounter(before, c));
    p.answers = checkResponses(st, p.reqs, resp, out);

    const double answeredPosts = answered();
    if (before.empty() || after.empty())
        out.fail("/statsz unavailable");
    else if (answeredPosts != p.posts)
        out.fail("statsz runs+joins+hits = " + std::to_string(answeredPosts) +
                 " but " + std::to_string(p.posts) + " POSTs were sent");
    return p;
}

/**
 * The per-layer serve diagnostics of one open-loop phase: its /statsz
 * deltas, hit and join ratios (base: POSTs), realised outcome shares
 * (base: all requests) and generator lateness.
 */
void
reportServeLayers(const Phase &p, Outcome &out)
{
    const double nreq = static_cast<double>(p.reqs.size());
    const double hangups = p.sent(Kind::Hangup);
    const double runs = p.delta("daemon.runs");
    const double joins = p.delta("daemon.dedupe_joins");
    const double hits = p.delta("daemon.report_cache_hits");
    out.layer("server.requests", "count", p.delta("daemon.requests"));
    out.layer("server.posts", "count", p.posts);
    out.layer("server.runs", "count", runs);
    out.layer("server.dedupe_joins", "count", joins);
    out.layer("server.cache_hits", "count", hits);
    out.layer("server.cache_misses", "count",
              p.delta("daemon.report_cache_misses"));
    out.layer("server.disconnect_cancels", "count",
              p.delta("daemon.disconnect_cancels"));
    out.layer("server.http_errors", "count", p.delta("daemon.http_errors"));
    out.layer("server.hit_ratio", "ratio", hits / p.posts);
    out.layer("server.join_ratio", "ratio", joins / p.posts);
    out.layer("gen.late_ms_p99", "ms", quantile(p.answers.lateMs, 0.99));
    out.layer("mix.hit_share", "ratio", hits / nreq);
    out.layer("mix.join_share", "ratio", joins / nreq);
    out.layer("mix.run_share", "ratio", (runs - hangups) / nreq);
    out.layer("mix.hangup_share", "ratio", hangups / nreq);
    out.layer("mix.health_share", "ratio", (nreq - p.posts) / nreq);
}

} // namespace

SetupSample
setupServeMixProbe(const Options &opts)
{
    Outcome scratch;
    ServeState st;
    const SetupSample s = setupServe(opts, &st, &scratch);
    const bool stopped = stopDaemon(&st);
    removeTree(opts.workDir);
    if (!scratch.correct || !stopped)
        return {};
    return s;
}

Outcome
runServeMix(const Options &opts)
{
    Outcome out;
    ServeState st;
    std::vector<double> cold;
    const std::vector<SetupSample> setups = measureSetup(
        opts, out, [&] { return setupServe(opts, &st, &out); });
    for (const SetupSample &s : setups)
        cold.push_back(s.coldPlanMs);
    if (st.port == 0) {
        stopDaemon(&st);
        return out;
    }
    Rng rng(opts.seed);

    // The timed rounds. Each sends a fixed-count open-loop chunk of the
    // mix (every end-to-end latency and the daemon's memory come from
    // these), then one closed-loop saturation window of the same mix on
    // all connections, then one cold plan (the set-up's store prewarm
    // on an empty directory). The host's speed drifts over seconds, so
    // each gated figure is sampled in every round across the whole run
    // rather than in one slice of it.
    const int rounds = std::max(
        1, static_cast<int>(std::lround(opts.seconds / kRoundSeconds)));
    const std::uint64_t rssBeforeKb = procStatusKb(st.daemon.pid, "VmRSS");
    Phase main;
    std::vector<double> windowRps;
    for (int round = 0; round < rounds; ++round) {
        refreshHotPlans(st, out);
        main.merge(runOpenLoop(st, rng, kChunkSlots, out));

        const std::vector<Request> sat =
            makeSchedule(rng, st, 1.0, kSaturationSlots);
        const Clock::time_point t0 = Clock::now();
        const std::vector<Response> sr = sendSchedule(st.port, sat, true);
        windowRps.push_back(static_cast<double>(sat.size()) /
                            (msSince(t0) / 1000.0));
        (void)checkResponses(st, sat, sr, out);

        const std::string dir =
            opts.workDir + "/cold-" + std::to_string(round);
        cold.push_back(prewarmStore(dir));
        removeTree(dir);
    }
    const std::uint64_t rssAfterKb = procStatusKb(st.daemon.pid, "VmRSS");
    const double daemonHwmMb =
        static_cast<double>(procStatusKb(st.daemon.pid, "VmHWM")) / 1024.0;
    const Answers &a = main.answers;
    const double maxRps = median(windowRps);
    // The traced run's serve diagnostics describe this daemon.
    if (opts.trace)
        reportServeLayers(main, out);

    // After the rounds: the offered-rate ladder at fractions of the
    // saturation throughput; the highest rate whose answered requests
    // meet the p99 limit with no growing backlog. Reported, not gated
    // (see README).
    double ladderRps = 0.0;
    std::string ladderLine = "  ladder (rate req/s : p99 ms):";
    for (const double fraction : kLadder) {
        const double rate = fraction * maxRps;
        refreshHotPlans(st, out);
        const std::vector<Request> rung = makeSchedule(
            rng, st, rate, static_cast<std::size_t>(rate * kRungSeconds));
        const Answers ra =
            checkResponses(st, rung, sendSchedule(st.port, rung), out);
        const std::size_t n = ra.lateMs.size();
        const std::vector<double> head(ra.lateMs.begin(),
                                       ra.lateMs.begin() + n / 5);
        const std::vector<double> tail(ra.lateMs.begin() + n * 4 / 5,
                                       ra.lateMs.end());
        const double p99 = quantile(ra.allMs, 0.99);
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %.0f:%.1f", rate, p99);
        ladderLine += buf;
        const bool backlog = median(tail) > median(head) + kP99LimitMs / 5;
        if (p99 > kP99LimitMs || backlog)
            break;
        ladderRps = rate;
    }

    // After the timed rounds: sampled runs must match a direct
    // Session::run of the same plan.
    {
        analysis::Session direct({.storeDir = st.store, .readOnly = true});
        Rng pick(opts.seed ^ 0x5eed);
        std::vector<std::size_t> keys;
        for (const auto &[k, body] : a.runBodies)
            keys.push_back(k);
        for (std::size_t i = 0; i < 3 && !keys.empty(); ++i) {
            const std::size_t k = keys[pick() % keys.size()];
            analysis::StudyPlan plan;
            ++out.attempted;
            if (!analysis::parsePlanJson(st.newPlans[k], &plan, nullptr)) {
                out.fail("sampled plan does not parse");
                continue;
            }
            const analysis::SuiteReport r = direct.run(plan);
            if (studyBytes(r.toJson()) != studyBytes(a.runBodies.at(k)))
                out.fail("served run " + std::to_string(k) +
                         " differs from a direct Session::run");
        }
    }

    if (!stopDaemon(&st))
        out.fail("sigcompd did not shut down cleanly");
    removeTree(st.store);

    out.e2e("cold_plan_ms_p50", "ms", median(cold));
    out.e2e("plan_ms_p50", "ms", median(a.runMs));
    out.e2e("plan_ms_p90", "ms", quantile(a.runMs, 0.9));
    out.e2e("hit_ms_p50", "ms", median(a.hitMs));
    out.e2e("sim_minstr_per_s", "Minstr/s", median(a.runMinstrPerS));
    out.e2e("peak_rss_mb", "MB", daemonHwmMb);
    out.e2e("max_rps", "req/s", maxRps);

    // The realised mix next to the one the schedule intended (a join
    // group's leader runs, its other members join).
    const double nreq = static_cast<double>(main.reqs.size());
    const double hangups = main.sent(Kind::Hangup);
    out.note("serve_mix: " + std::to_string(main.reqs.size()) +
             " requests at " + std::to_string(static_cast<int>(kOfferedRps)) +
             " req/s offered, " + std::to_string(kConnections) +
             " connections, " + std::to_string(kTenants) + " tenants; " +
             std::to_string(a.hitMs.size()) + " hits, " +
             std::to_string(a.runMs.size()) + " runs and joins timed; hit " +
             tailNote(a.hitMs));
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "  realised mix (intended): hit %.3f (%.3f)  join %.3f (%.3f)  run "
        "%.3f (%.3f)  hangup %.3f (%.3f)  health+stats %.3f (%.3f)",
        main.delta("daemon.report_cache_hits") / nreq, main.sent(Kind::Hit) / nreq,
        main.delta("daemon.dedupe_joins") / nreq,
        (main.sent(Kind::Join) - main.leaders) / nreq,
        (main.delta("daemon.runs") - hangups) / nreq,
        (main.sent(Kind::Run) + main.leaders) / nreq, hangups / nreq,
        hangups / nreq, (nreq - main.posts) / nreq,
        (nreq - main.posts) / nreq);
    out.note(line);
    std::snprintf(line, sizeof(line),
                  "  statsz deltas: runs %.0f joins %.0f hits %.0f "
                  "disconnect_cancels %.0f; daemon RSS %+.0f kB over the "
                  "rounds; generator late p99 %.3f ms",
                  main.delta("daemon.runs"), main.delta("daemon.dedupe_joins"),
                  main.delta("daemon.report_cache_hits"),
                  main.delta("daemon.disconnect_cancels"),
                  static_cast<double>(rssAfterKb) -
                      static_cast<double>(rssBeforeKb),
                  quantile(a.lateMs, 0.99));
    out.note(line);
    std::snprintf(line, sizeof(line),
                  "  serve_max_rps (p99 <= %.0f ms, no growing backlog): "
                  "%.1f req/s",
                  kP99LimitMs, ladderRps);
    out.note(line);
    out.note(ladderLine);
    return out;
}

void
serveMixProbe(const Options &opts, const std::string &store,
              std::uint16_t port, Outcome &out)
{
    ServeState st;
    st.store = store;
    st.port = port;
    primeDaemon(opts.seed, &st, &out);
    Rng rng(opts.seed);
    reportServeLayers(
        runOpenLoop(st, rng, static_cast<std::size_t>(kOfferedRps * 1.5), out),
        out);
}

} // namespace perfbench
