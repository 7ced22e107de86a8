#include "bench.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "analysis/session.h"
#include "common/net.h"
#include "pipeline/models.h"
#include "workloads/workload.h"

extern char **environ;

namespace perfbench
{

using namespace sigcomp;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    correct = false;
    // Keep the log readable when many operations fail the same way.
    if (failed <= 20)
        notes.push_back("FAIL: " + why);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string
tailNote(const std::vector<double> &ms)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "p90 %.3f ms, p99 %.3f ms over %zu samples",
                  quantile(ms, 0.9), quantile(ms, 0.99), ms.size());
    return buf;
}

// ---- process probes --------------------------------------------------

std::uint64_t
procStatusKb(pid_t pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
    return 0;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec;
}

Child
spawnChild(const std::vector<std::string> &argv, bool pipeStdout)
{
    Child child;
    int fds[2] = {-1, -1};
    if (pipeStdout && pipe2(fds, O_CLOEXEC) != 0)
        return child;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (pipeStdout)
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (pipeStdout)
        close(fds[1]);
    if (rc != 0) {
        if (pipeStdout)
            close(fds[0]);
        return child;
    }
    child.pid = pid;
    child.stdoutFd = pipeStdout ? fds[0] : -1;
    return child;
}

bool
readLine(int fd, std::string *line, int timeoutMs)
{
    line->clear();
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const int left = timeoutMs - static_cast<int>(msSince(t0));
        if (left <= 0)
            return false;
        pollfd p{fd, POLLIN, 0};
        if (poll(&p, 1, left) <= 0)
            continue;
        char c = 0;
        const ssize_t r = read(fd, &c, 1);
        if (r <= 0)
            return false;
        if (c == '\n')
            return true;
        *line += c;
    }
}

int
waitChild(Child &child, int timeoutMs)
{
    if (child.pid <= 0)
        return -1;
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    bool killed = false;
    for (;;) {
        const pid_t r = waitpid(child.pid, &status, WNOHANG);
        if (r == child.pid)
            break;
        if (r < 0) {
            status = -1;
            break;
        }
        if (!killed && msSince(t0) > timeoutMs) {
            kill(child.pid, SIGKILL);
            killed = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (child.stdoutFd >= 0)
        close(child.stdoutFd);
    child.stdoutFd = -1;
    child.pid = -1;
    if (killed || status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

// ---- HTTP ------------------------------------------------------------

HttpReply
httpCall(std::uint16_t port, const std::string &request)
{
    HttpReply reply;
    std::unique_ptr<net::Conn> conn = net::connectTcp("127.0.0.1", port);
    if (conn == nullptr)
        return reply;
    if (!conn->writeAll(request.data(), request.size()).ok())
        return reply;
    std::string response;
    char buf[16384];
    for (;;) {
        std::size_t got = 0;
        if (!conn->read(buf, sizeof(buf), &got).ok())
            return reply;
        if (got == 0)
            break;
        response.append(buf, got);
    }
    conn->closeConn();
    const std::size_t blank = response.find("\r\n\r\n");
    if (response.compare(0, 9, "HTTP/1.1 ") != 0 ||
        blank == std::string::npos)
        return reply;
    reply.transportOk = true;
    reply.status = std::atoi(response.c_str() + 9);
    reply.body = response.substr(blank + 4);
    return reply;
}

bool
httpHangup(std::uint16_t port, const std::string &request, int afterMs)
{
    std::unique_ptr<net::Conn> conn = net::connectTcp("127.0.0.1", port);
    if (conn == nullptr)
        return false;
    const bool ok = conn->writeAll(request.data(), request.size()).ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(afterMs));
    conn->closeConn();
    return ok;
}

std::string
httpGet(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: sigcompd\r\n\r\n";
}

std::string
httpPost(const std::string &tenant, const std::string &body)
{
    return "POST /v1/run HTTP/1.1\r\nHost: sigcompd\r\n"
           "X-Sigcomp-Tenant: " +
           tenant + "\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

std::uint64_t
statszCounter(const std::string &statsz, const std::string &name)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = statsz.find(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(statsz.c_str() + at + key.size(), nullptr, 10);
}

// ---- plans and checks ------------------------------------------------

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = workloads::Suite::names();
        for (const std::string &n : workloads::Suite::extraNames())
            v.push_back(n);
        return v;
    }();
    return names;
}

analysis::StudyPlan
paperPlan(PaperSinks *sinks)
{
    analysis::StudyPlan plan;
    plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .activity(sig::Encoding::Half1)
        .energy()
        .workloads(benchWorkloads());
    if (sinks != nullptr)
        plan.profile({&sinks->pattern, &sinks->mix, &sinks->pc});
    return plan;
}

std::string
sinkDigest(const PaperSinks &sinks)
{
    std::ostringstream out;
    out << "pattern";
    for (unsigned m = 0; m < 16; ++m)
        out << ' ' << sinks.pattern.patterns().count(
                          static_cast<sig::ByteMask>(m));
    out << " mix " << sinks.mix.total();
    for (const auto &[funct, n] : sinks.mix.functFreq().ranked())
        out << ' ' << unsigned(funct) << ':' << n;
    out << " pc";
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const sig::PcActivityAccumulator &acc =
            sinks.pc.forBlockBits(bits);
        out << ' ' << acc.updates() << '/' << acc.activityBits() << '/'
            << acc.cycles();
    }
    return out.str();
}

std::string
studyBytes(const std::string &reportJson)
{
    if (reportJson.find("\"schema\": \"sigcomp-suite-report-v4\"") ==
        std::string::npos)
        return "";
    const std::size_t wl = reportJson.find("\n  \"workloads\": ");
    const std::size_t engine = reportJson.find("\n  \"engine\": ");
    const std::size_t activity = reportJson.find("\n  \"activity\": ");
    if (wl == std::string::npos || engine == std::string::npos ||
        activity == std::string::npos || engine < wl ||
        activity < engine)
        return "";
    const std::size_t sinks =
        reportJson.find("\n  \"profile_sinks\": ", activity);
    if (sinks == std::string::npos)
        return "";
    return reportJson.substr(wl, engine - wl) +
           reportJson.substr(activity, sinks - activity);
}

} // namespace perfbench
