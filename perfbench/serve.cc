/**
 * @file
 * serve-control: the provider daemon's control plane with no
 * simulation.
 *
 * The op mix is arrive, depart, query, snapshot, region_snapshot and
 * migrate; there are no steps, and arrivals and departures hold the
 * tenant population at kPopulation so the fabric never fills. The op
 * sequence and arrival classes are a function of the seed; a
 * tenant-targeted op picks the oldest idle tenant, one with no
 * request in flight, so no request names a tenant that is
 * mid-migration or gone.
 *
 * End-to-end numbers come from a fixed request log of that mix, made
 * from the seed at set-up, replayed in-process for the budget. Each
 * replay starts a fresh RegionCore (2 shards, placement spread,
 * automatic rebalancing off) and takes every request through the
 * path a daemon's shard takes it, minus the sockets: the request is
 * framed, decoded and parsed (codec), applied (RegionCore::apply),
 * and its response dumped, framed, decoded and parsed. Each request
 * is timed at its fastest over the replays (see runServe). Every
 * replay must answer identically, and its drain and audit must pass.
 *
 * The traced run adds the socket path: an in-process ServiceServer
 * (2 shards, 1 IO thread) driven open loop by one generator thread
 * over up to nproc (at most 4) Unix-socket connections, latency timed
 * from each request's due time (lib/openloop.hh). It measures latency
 * at kReferenceRate, and the highest rate on a fixed geometric ladder
 * (rungs 7% apart) meeting p99 <= 2 ms with every request answered
 * exactly once, no failures and no backlog left, found by bisection.
 * A ladder trial is judged per window of its schedule (see kWindows)
 * so a transient host stall is told apart from a growing backlog.
 * Host preemption moves these open-loop figures by more than any
 * bound on a shared host, which is why they are per-layer context.
 * The replay's apply and codec times split the reference latency
 * into apply, codec and wire (IO thread, epoll, queue hand-off).
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "check/audit.hh"
#include "common/rng.hh"
#include "lib/digest.hh"
#include "lib/openloop.hh"
#include "lib/spans.hh"
#include "lib/stats.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/region.hh"
#include "service/server.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using cash::service::JsonValue;
using cash::service::Op;
using cash::service::Request;

/** Offered rate of the open-loop reference trials: about half of
 *  max_rate_rps as measured on the commit that introduced this
 *  benchmark (4-vCPU x86-64 VM). Fixed so later commits are compared
 *  at one rate. */
constexpr double kReferenceRate = 10000.0;
/** The latency limit (p99) a ladder rung must meet. */
constexpr double kLimitMs = 2.0;
/** A window whose generator ran later than this (p99) is late. */
constexpr double kLagLimitMs = 0.5;
/** Region-wide tenant population the arrive/depart mix holds. */
constexpr std::uint32_t kPopulation = 8;
constexpr std::uint32_t kShards = 2;

/** A ladder trial is judged in kWindows slices of its schedule; it
 *  passes when kWindowsNeeded of them meet the latency limit (and
 *  is invalid when fewer kept the generator on time). */
constexpr std::size_t kWindows = 10;
constexpr std::size_t kWindowsNeeded = 8;
/** Requests in the replayed log (a few tenths of a second per replay
 *  on a 4-vCPU host), and in a probe's. */
constexpr std::size_t kLogRequests = 10'000;
constexpr std::size_t kProbeRequests = 2'000;
/** Replays of a traced run, whose every request leaves spans (keeps
 *  the Chrome trace to a few tens of MB). */
constexpr std::size_t kTracedReplays = 3;
/** Attempts per ladder rung (see runServe). */
constexpr int kAttempts = 2;

const Ladder kLadder{1000.0, 1.07, 60};

std::atomic<unsigned> g_socketSerial{0};

std::string
socketPath(const std::string &dir)
{
    return dir + "/serve-" + std::to_string(getpid()) + "-"
        + std::to_string(g_socketSerial++) + ".sock";
}

cash::cloud::ProviderParams
serveProvider(std::uint64_t seed)
{
    cash::cloud::ProviderParams pp;
    pp.catalog = cash::cloud::defaultCatalog();
    pp.seed = subSeed(seed, 0x5e7e);
    return pp;
}

cash::service::ServerConfig
serveConfig(const std::string &path)
{
    cash::service::ServerConfig sc;
    sc.unixPath = path;
    sc.shards = kShards;
    sc.ioThreads = 1;
    sc.placement = cash::cloud::PlacementPolicy::Spread;
    sc.rebalance.enabled = false;
    return sc;
}

/** The region a server of serveConfig() runs, without the server. */
std::unique_ptr<cash::service::RegionCore>
makeRegion(std::uint64_t seed)
{
    return std::make_unique<cash::service::RegionCore>(
        serveProvider(seed), kShards, false,
        cash::cloud::PlacementPolicy::Spread,
        cash::cloud::RebalanceParams{2.0, 0.5, 8, false});
}

int
connectUnix(const std::string &path)
{
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        close(fd);
        throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
        != 0) {
        close(fd);
        throw std::runtime_error("connect failed: " + path);
    }
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** One draw of the seeded op-kind stream. */
struct OpDraw
{
    Op op = Op::Snapshot;
    std::uint32_t cls = 0;
};

/** Ops per block of the op-kind stream, and their kinds: every block
 *  holds 40 membership changes, 30 queries, 10 migrations, 13
 *  snapshots and 7 region snapshots. */
constexpr std::size_t kBlock = 100;
constexpr std::pair<Op, std::size_t> kMix[] = {
    {Op::Arrive, 40}, {Op::Query, 30}, {Op::Migrate, 10},
    {Op::Snapshot, 13}, {Op::RegionSnapshot, 7}};

template <typename T>
void
shuffle(std::vector<T> &v, cash::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

/**
 * The op-kind stream: blocks of kBlock ops with the kMix counts, and
 * arrival classes in blocks holding each class once, each block in a
 * seed-shuffled order. Blocks keep the amount of work nearly
 * independent of the seed, while the order of the ops varies.
 */
std::vector<OpDraw>
drawOps(std::uint64_t seed, std::size_t n, std::uint32_t classes)
{
    cash::Rng rng(subSeed(seed, 0x0b5));
    std::vector<OpDraw> ops;
    ops.reserve(n + kBlock);
    std::vector<std::uint32_t> cls;
    while (ops.size() < n) {
        std::vector<Op> block;
        for (const auto &[op, count] : kMix)
            block.insert(block.end(), count, op);
        shuffle(block, rng);
        for (Op op : block) {
            if (op == Op::Arrive && cls.empty()) {
                for (std::uint32_t c = 0; c < classes; ++c)
                    cls.push_back(c);
                shuffle(cls, rng);
            }
            OpDraw d;
            d.op = op;
            if (op == Op::Arrive) {
                d.cls = cls.back();
                cls.pop_back();
            }
            ops.push_back(d);
        }
    }
    ops.resize(n);
    return ops;
}

/**
 * The op mix and its tenant bookkeeping, shared by the log maker and
 * the socket generator. Membership churn (Arrive in the draw) becomes
 * an arrive or a depart, whichever moves the live population toward
 * kPopulation; a tenant op takes the oldest idle tenant, or becomes
 * a snapshot when none is idle.
 */
class Mix
{
  public:
    Mix(std::uint64_t seed, std::size_t n)
        : draws_(drawOps(seed, n,
                         static_cast<std::uint32_t>(
                             serveProvider(seed).catalog.size())))
    {}

    /** Request i, with id i + 1. */
    Request next(std::size_t i);
    /** Account the answer to `req`; false when an accepted arrive
     *  or migrate names no tenant. */
    bool answered(const Request &req, const JsonValue &resp);

    std::uint64_t departed = 0; ///< departs the region acknowledged

  private:
    std::vector<OpDraw> draws_;
    std::deque<std::uint32_t> idle_;
    /** Tenants arrived or arriving and not yet sent a depart. */
    std::uint32_t population_ = 0;
};

Request
Mix::next(std::size_t i)
{
    Request req;
    req.id = i + 1;
    const OpDraw &d = draws_[i];
    req.op = d.op;
    if (d.op == Op::Arrive && population_ >= kPopulation)
        req.op = Op::Depart;
    const bool needsTenant = req.op == Op::Depart || req.op == Op::Query
        || req.op == Op::Migrate;
    if (needsTenant && idle_.empty()) {
        req.op = Op::Snapshot;
    } else if (needsTenant) {
        req.tenant = idle_.front();
        idle_.pop_front();
        if (req.op == Op::Depart)
            --population_;
    } else if (req.op == Op::Arrive) {
        req.cls = d.cls;
        req.residence = 1'000'000;
        ++population_;
    }
    return req;
}

bool
Mix::answered(const Request &req, const JsonValue &resp)
{
    // A refused request (queue_full, deadline_exceeded) changed
    // nothing: the tenant it named is still there, still idle.
    const bool ok = resp.getBool("ok").value_or(false);
    if (!ok) {
        if (req.op == Op::Arrive)
            --population_;
        else if (req.op == Op::Depart)
            ++population_;
        if (req.op == Op::Depart || req.op == Op::Query
            || req.op == Op::Migrate)
            idle_.push_back(req.tenant);
        return true;
    }
    switch (req.op) {
      case Op::Arrive:
      case Op::Migrate: {
        auto t = resp.getUint("tenant");
        if (!t)
            return false;
        if (resp.getString("state").value_or("") == "active") {
            idle_.push_back(static_cast<std::uint32_t>(*t));
        } else {
            --population_; // an expected admission refusal
        }
        return true;
      }
      case Op::Query:
        idle_.push_back(req.tenant);
        return true;
      case Op::Depart:
        ++departed;
        return true;
      default:
        return true;
    }
}

/** The request log: the mix applied to a fresh region one request
 *  at a time, so it depends on the seed alone. */
std::vector<Request>
makeLog(std::uint64_t seed, std::size_t n)
{
    auto region = makeRegion(seed);
    Mix mix(seed, n);
    std::vector<Request> log;
    log.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        log.push_back(mix.next(i));
        mix.answered(log.back(), region->apply(log.back()));
    }
    return log;
}

/** One replay of the log, summarized. */
struct Replay
{
    double wallS = 0.0;
    /** Host ms of the pieces around the requests: the fresh region,
     *  and the drain plus audits at the end. */
    std::vector<double> edgeMs;
    /** Codec + apply per request in log order, milliseconds (empty
     *  after a request failed the codec). */
    std::vector<double> requestMs;
    /** Medians: apply per op and codec (both directions), µs. */
    std::map<std::string, double> applyUs;
    double applyP50Us = 0.0;
    double codecP50Us = 0.0;
    std::string digest;
    Tally tally;
};

Replay
replayLog(std::uint64_t seed, const std::vector<Request> &log)
{
    Replay rp;
    const double t0 = nowSeconds();
    auto region = makeRegion(seed);
    rp.edgeMs.push_back((nowSeconds() - t0) * 1e3);
    cash::service::FrameDecoder inbound, outbound;
    std::vector<double> allApplyUs, codecUs;
    std::map<std::string, std::vector<double>> applyUs;
    rp.requestMs.reserve(log.size());
    allApplyUs.reserve(log.size());
    codecUs.reserve(log.size());
    Digest dg;
    std::uint64_t departed = 0;
    for (const Request &req : log) {
        const double c0 = nowSeconds();
        std::optional<Request> parsed;
        {
            Span span("service", "codec");
            std::string frame = cash::service::encodeFrame(req.toJson().dump());
            inbound.feed(frame.data(), frame.size());
            auto payload = inbound.next();
            auto json = payload ? cash::service::parseJson(*payload)
                                : std::nullopt;
            std::string err, detail;
            std::uint64_t id = 0;
            if (json)
                parsed = cash::service::parseRequest(*json, &err, &detail,
                                                     &id);
        }
        const double a0 = nowSeconds();
        if (!parsed || parsed->id != req.id || parsed->op != req.op
            || parsed->tenant != req.tenant) {
            rp.tally.fail("request " + std::to_string(req.id)
                          + " did not survive the codec");
            rp.requestMs.clear();
            continue;
        }
        JsonValue resp;
        {
            Span span("service", "RegionCore::apply");
            resp = region->apply(*parsed);
        }
        const double a1 = nowSeconds();
        std::optional<JsonValue> back;
        std::string text;
        {
            Span span("service", "codec");
            text = resp.dump();
            std::string frame = cash::service::encodeFrame(text);
            outbound.feed(frame.data(), frame.size());
            auto payload = outbound.next();
            if (payload)
                back = cash::service::parseJson(*payload);
        }
        const double c1 = nowSeconds();
        rp.requestMs.push_back((c1 - c0) * 1e3);
        allApplyUs.push_back((a1 - a0) * 1e6);
        applyUs[cash::service::opName(req.op)].push_back((a1 - a0) * 1e6);
        codecUs.push_back((a0 - c0 + c1 - a1) * 1e6);
        dg.add(std::string_view(text));
        if (!back || back->getUint("id").value_or(0) != req.id)
            rp.tally.fail("answer to request " + std::to_string(req.id)
                          + " lost in the codec");
        else if (!back->getBool("ok").value_or(false))
            rp.tally.fail(std::string("request ")
                          + cash::service::opName(req.op) + " failed: "
                          + back->getString("error").value_or("?") + " "
                          + back->getString("detail").value_or(""));
        else {
            rp.tally.ok();
            departed += req.op == Op::Depart;
        }
    }

    // The drain must bill exactly the acknowledged departures plus
    // the tenants still active, and every shard must pass its audit.
    const double d0 = nowSeconds();
    Request snap;
    snap.op = Op::Snapshot;
    const std::uint64_t active =
        region->apply(snap).getUint("active").value_or(0);
    JsonValue report;
    {
        Span span("service", "RegionCore::drainReport");
        report = region->drainReport();
    }
    std::uint64_t billed = report.getUint("departed").value_or(0);
    rp.tally.check(report.getBool("ok").value_or(false)
                       && billed == departed + active,
                   "replay drain billed " + std::to_string(billed)
                       + " tenants, expected " + std::to_string(departed)
                       + " departed + " + std::to_string(active)
                       + " active");
    for (std::uint32_t s = 0; s < region->shards(); ++s) {
        try {
            Span span("check", "auditProvider");
            cash::auditProvider(region->provider(s));
            rp.tally.ok();
        } catch (const std::exception &e) {
            rp.tally.fail(std::string("replay audit: ") + e.what());
        }
    }
    dg.add(std::string_view(report.dump()));
    rp.edgeMs.push_back((nowSeconds() - d0) * 1e3);
    rp.wallS = nowSeconds() - t0;
    rp.digest = dg.hex();
    for (auto &[op, us] : applyUs)
        rp.applyUs[op] = median(std::move(us));
    rp.applyP50Us = median(std::move(allApplyUs));
    rp.codecP50Us = median(std::move(codecUs));
    return rp;
}

/** One open-loop trial against a fresh server. */
struct Trial
{
    double rate = 0.0;
    bool pass = false;
    bool lagInvalid = false;
    Summary latency;
    Summary lag;
    std::size_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t broken = 0; ///< of failed: see runTrial
    std::string brokenWhy;    ///< the first broken reason
    std::uint64_t serverRequests = 0;
    std::uint64_t serverBatches = 0;
    std::uint64_t queueFull = 0;
    std::vector<std::string> reasons;
};

/** One generator-side connection; closes its socket. */
struct Conn
{
    int fd = -1;
    cash::service::FrameDecoder decoder;
    std::string outbox;
    std::size_t outOff = 0;

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * Run one open-loop trial of `n` requests, request i due at
 * i / rate, against a fresh server. All socket IO is done by this
 * one thread.
 */
Trial
runTrial(std::uint64_t seed, std::size_t n, double rate,
         const std::string &dir)
{
    Trial tr;
    tr.rate = rate;
    // A failed request (an error answer) versus a broken trial (an
    // answer missing, duplicated or malformed, a failed audit or
    // drain): above the sustainable rate only the first is expected.
    auto fail = [&](const std::string &why) {
        ++tr.failed;
        if (tr.reasons.size() < 4)
            tr.reasons.push_back(why);
    };
    auto broken = [&](const std::string &why) {
        if (!tr.broken++)
            tr.brokenWhy = why;
        fail(why);
    };

    std::string path = socketPath(dir);
    cash::service::ServiceServer server(serveProvider(seed),
                                        serveConfig(path));
    {
        Span span("service", "ServiceServer::start");
        server.start();
    }
    const std::size_t nconns = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<Conn> conns(nconns);
    for (Conn &c : conns)
        c.fd = connectUnix(path);

    LatencyBook book(n, rate);
    Mix mix(seed, n);
    std::vector<Request> sent(n);

    auto flush = [&](Conn &c) {
        while (c.outOff < c.outbox.size()) {
            ssize_t w = ::write(c.fd, c.outbox.data() + c.outOff,
                                c.outbox.size() - c.outOff);
            if (w < 0) {
                if (errno == EAGAIN || errno == EINTR)
                    return;
                throw std::runtime_error("write to server failed");
            }
            c.outOff += static_cast<std::size_t>(w);
        }
        c.outbox.clear();
        c.outOff = 0;
    };

    auto handle = [&](const std::string &payload, double at) {
        auto v = cash::service::parseJson(payload);
        std::uint64_t id = v ? v->getUint("id").value_or(0) : 0;
        if (!v || id == 0 || id > n) {
            broken("unparseable or unmatched response");
            return;
        }
        const Request &req = sent[id - 1];
        if (!book.markDone(id - 1, at)) {
            broken("duplicate answer");
            return;
        }
        if (!v->getBool("ok").value_or(false))
            fail(std::string("request ") + cash::service::opName(req.op)
                 + " failed: " + v->getString("error").value_or("?") + " "
                 + v->getString("detail").value_or(""));
        if (!mix.answered(req, *v))
            broken(std::string(cash::service::opName(req.op))
                   + " answer without tenant");
    };

    std::vector<pollfd> pfds(nconns);
    char buf[64 * 1024];
    const double t0 = nowSeconds();
    const double giveUp = book.due(n - 1) + 5.0;
    std::size_t next = 0;
    {
        Span span("service", "trial");
        while (book.answered() < n) {
            double now = nowSeconds() - t0;
            if (now > giveUp)
                break;
            while (next < n && book.due(next) <= now) {
                sent[next] = mix.next(next);
                Conn &c = conns[next % nconns];
                c.outbox +=
                    cash::service::encodeFrame(sent[next].toJson().dump());
                flush(c);
                book.markSent(next, nowSeconds() - t0);
                ++next;
                now = nowSeconds() - t0;
            }
            for (std::size_t k = 0; k < nconns; ++k) {
                pfds[k].fd = conns[k].fd;
                pfds[k].events = POLLIN
                    | (conns[k].outOff < conns[k].outbox.size() ? POLLOUT
                                                                : 0);
                pfds[k].revents = 0;
            }
            double wait =
                std::max(0.0, next < n ? book.due(next) - now : 0.05);
            timespec ts{};
            ts.tv_sec = static_cast<time_t>(wait);
            ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
            int rc = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
            if (rc < 0 && errno != EINTR)
                throw std::runtime_error("ppoll failed");
            for (std::size_t k = 0; k < nconns && rc > 0; ++k) {
                Conn &c = conns[k];
                if (pfds[k].revents & POLLOUT)
                    flush(c);
                if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                for (;;) {
                    ssize_t r = ::read(c.fd, buf, sizeof buf);
                    if (r > 0) {
                        c.decoder.feed(buf, static_cast<std::size_t>(r));
                        continue;
                    }
                    if (r < 0 && (errno == EAGAIN || errno == EINTR))
                        break;
                    throw std::runtime_error("server closed a connection");
                }
                double at = nowSeconds() - t0;
                while (auto frame = c.decoder.next())
                    handle(*frame, at);
                if (c.decoder.error())
                    throw std::runtime_error("bad frame from server");
            }
        }
    }
    tr.requests = n;
    if (book.answered() < n)
        broken("missing answers: " + std::to_string(n - book.answered()));
    if (!book.exactlyOnce())
        broken("requests not answered exactly once");

    // The region's active count before the drain: the drain must
    // bill exactly those tenants plus every acknowledged departure.
    std::uint64_t activeAtEnd = 0;
    conns.clear();
    {
        int fd = connectUnix(path);
        fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
        cash::service::ServiceClient client(fd);
        activeAtEnd = client.snapshot().getUint("active").value_or(0);
    }
    tr.serverRequests = server.stats().requests.load();
    tr.serverBatches = server.stats().batches.load();
    tr.queueFull = server.stats().queueFull.load();
    {
        Span span("service", "ServiceServer::stop");
        server.stop(); // fleet-wide audited drain
    }
    const JsonValue &report = server.finalReport();
    if (!report.getBool("ok").value_or(false))
        broken("drain report not ok");
    std::uint64_t billed = report.getUint("departed").value_or(0);
    if (billed != mix.departed + activeAtEnd)
        broken("drain report billed " + std::to_string(billed)
               + " tenants, expected " + std::to_string(mix.departed)
               + " departed + " + std::to_string(activeAtEnd) + " active");
    for (std::uint32_t s = 0; s < server.shardCount(); ++s) {
        try {
            Span span("check", "auditProvider");
            cash::auditProvider(server.provider(s));
        } catch (const std::exception &e) {
            broken(std::string("serve audit: ") + e.what());
        }
    }
    ::unlink(path.c_str());

    tr.latency = summarize(book.latencyMs());
    tr.lag = summarize(book.lagMs());
    // Rung verdicts are taken per window so a transient host stall
    // (a few windows) is told apart from a backlog that grows (every
    // window from some point on).
    std::size_t fast = 0, punctual = 0;
    for (const LatencyBook::Window &w : book.windows(kWindows)) {
        fast += w.latencyP99Ms <= kLimitMs;
        punctual += w.lagP99Ms <= kLagLimitMs;
    }
    tr.lagInvalid = punctual < kWindowsNeeded;
    tr.pass = tr.failed == 0 && tr.queueFull == 0 && !tr.lagInvalid
        && fast >= kWindowsNeeded
        && book.finishBehindMs() <= 10 * kLimitMs;
    return tr;
}

} // namespace

void
setupServe(std::uint64_t seed, void (*ready)())
{
    const std::vector<Request> log = makeLog(seed, kLogRequests);
    auto region = makeRegion(seed);
    if (log.size() == kLogRequests && region->shards() == kShards)
        ready();
}

Outcome
runServe(const RunConfig &cfg)
{
    Outcome o;
    const std::vector<Request> log =
        makeLog(cfg.seed, cfg.probe ? kProbeRequests : kLogRequests);

    // End-to-end numbers: replays of the log, repeated for the budget
    // (a fixed count when traced, where every request leaves spans,
    // and for a probe), each piece at its fastest over the replays
    // (see PieceTimes): every replay does the same work, a request
    // takes microseconds and is replayed dozens of times, and host
    // noise (an interrupt, a neighbour on the caches) only ever slows
    // it, which at 10,000 requests a replay would otherwise set the
    // p99.
    // work_s sums the requests, the fresh region and the drain plus
    // audits; throughput_per_s divides the requests by their sum.
    const std::size_t fixed =
        cfg.probe ? 1 : cfg.trace ? kTracedReplays : 0;
    // Only the fastest replay (for the traced run's per-layer split)
    // is kept: per-replay objects kept across the loop would pin the
    // heap between the regions' large allocations and make
    // peak_rss_mb grow with the replay count.
    Replay best;
    PieceTimes requests, edges;
    std::size_t replays = 0;
    double lastS = 0.0;
    const double start = nowSeconds();
    do {
        Replay r = replayLog(cfg.seed, log);
        // A failed request leaves requestMs empty and fails the run.
        if (!r.requestMs.empty())
            o.tally.check(requests.add(r.requestMs)
                              && edges.add(r.edgeMs),
                          "request-log replays timed other pieces");
        r.requestMs = {};
        o.tally.merge(r.tally);
        if (replays++ == 0)
            o.digest = r.digest;
        else
            o.tally.check(r.digest == o.digest,
                          "request-log replays answered differently");
        lastS = r.wallS;
        if (replays == 1 || r.wallS < best.wallS)
            best = std::move(r);
    } while (fixed ? replays < fixed
                   : replays < 3
                       || nowSeconds() - start + lastS <= cfg.seconds);

    const std::vector<double> requestMs = requests.quantile(0.0);
    const double requestsMs = sum(requestMs);
    const double rate =
        static_cast<double>(log.size()) / (requestsMs / 1e3);
    const Summary perRequest = summarize(requestMs);
    o.e2e.set("work_s", (requestsMs + sum(edges.quantile(0.0))) / 1e3,
              "s");
    o.e2e.set("p50_ms", perRequest.p50, "ms");
    o.e2e.set("p99_ms", perRequest.p99, "ms");
    o.e2e.set("throughput_per_s", rate, "1/s");
    o.notes.push_back(
        "serve-control: " + std::to_string(replays)
        + " replay(s) of a " + std::to_string(log.size())
        + "-request log, each request at its fastest: "
        + formatNumber(rate) + " req/s; n="
        + std::to_string(perRequest.samples) + " p50 "
        + formatNumber(perRequest.p50) + " ms, p99 "
        + formatNumber(perRequest.p99) + " ms, tail rule p"
        + formatNumber(perRequest.tailPct) + " = "
        + formatNumber(perRequest.tail) + " ms; digest " + o.digest);
    if (!cfg.trace)
        return o;

    // The open-loop numbers: latency from due time at the
    // reference rate, and the highest ladder rate meeting the limit.
    // Host preemption moves both by far more than any bound on a
    // shared host, so they are per-layer context, not bounded.
    auto account = [&](const Trial &t) {
        o.tally.attempted += t.requests;
        o.tally.failed += t.failed;
        for (const std::string &r : t.reasons)
            if (o.tally.reasons.size() < 8)
                o.tally.reasons.push_back(r);
    };
    const int refTrials = cfg.probe ? 1 : 4;
    const double refSeconds = cfg.probe ? 0.2 : cfg.seconds * 0.1;
    std::vector<Trial> refs;
    std::vector<double> refP50, refP99, refLag;
    std::uint64_t queueFull = 0;
    for (int k = 0; k < refTrials; ++k) {
        refs.push_back(runTrial(
            cfg.seed + k,
            static_cast<std::size_t>(kReferenceRate * refSeconds),
            kReferenceRate, workdir()));
        account(refs.back());
        refP50.push_back(refs.back().latency.p50);
        refP99.push_back(refs.back().latency.p99);
        refLag.push_back(refs.back().lag.p99);
        queueFull += refs.back().queueFull;
    }
    const Trial &ref = refs.front();

    // The highest rung meeting the limit, by bisection. Host noise
    // (preemption of the generator or the server) can only make a
    // trial slower, so a rung that fails or whose generator ran late
    // is run once more and passes if either attempt passed.
    std::vector<Trial> rungs;
    double maxRate = 0.0;
    {
        const double trialSeconds = cfg.probe ? 0.15 : cfg.seconds * 0.05;
        auto found = bisectLadder(kLadder.rungs, [&](std::size_t i) {
            for (int attempt = 0; attempt < kAttempts; ++attempt) {
                Trial t = runTrial(
                    cfg.seed + attempt,
                    static_cast<std::size_t>(kLadder.rate(i) * trialSeconds),
                    kLadder.rate(i), workdir());
                // Error answers above the sustainable rate
                // (queue_full) are what the search looks for; only a
                // broken trial counts against the run.
                o.tally.attempted += t.requests;
                o.tally.failed += t.broken;
                if (t.broken && o.tally.reasons.size() < 8)
                    o.tally.reasons.push_back(t.brokenWhy);
                rungs.push_back(std::move(t));
                if (rungs.back().pass)
                    return true;
            }
            return false;
        });
        // A measurement, not an output check: when even rung 0
        // fails (a noisy host), 0 is reported.
        maxRate = found ? kLadder.rate(*found) : 0.0;
        std::string ladder;
        for (const Trial &t : rungs) {
            ladder += ' ';
            ladder += formatNumber(std::round(t.rate));
            ladder += t.pass ? '+' : t.lagInvalid ? '!' : '-';
        }
        o.notes.push_back("serve-control: max_rate_rps "
                          + formatNumber(maxRate) + "; rungs (+ pass, - "
                          "fail, ! generator late):" + ladder);
    }
    o.notes.push_back(
        "serve-control: reference " + formatNumber(kReferenceRate)
        + " req/s open loop, " + std::to_string(refs.size())
        + " trial(s) of n=" + std::to_string(ref.latency.samples)
        + ": median p50 " + formatNumber(median(refP50))
        + " ms, median p99 " + formatNumber(median(refP99))
        + " ms (tail rule: p" + formatNumber(ref.latency.tailPct) + ")");

    Metrics &L = o.layers;
    for (const char *op : {"arrive", "depart", "query", "snapshot",
                           "region_snapshot", "migrate"}) {
        auto it = best.applyUs.find(op);
        L.set(std::string("service.apply_us.") + op,
              it == best.applyUs.end() ? 0.0 : it->second, "us");
    }
    L.set("service.codec_us", best.codecP50Us, "us");
    L.set("service.wire_us",
          median(refP50) * 1e3 - best.applyP50Us - best.codecP50Us, "us");
    L.set("service.batch_size",
          ref.serverBatches
              ? static_cast<double>(ref.serverRequests)
                  / static_cast<double>(ref.serverBatches)
              : 0.0,
          "count");
    L.set("service.queue_full", static_cast<double>(queueFull), "count");
    L.set("bench.ref_p50_ms", median(refP50), "ms");
    L.set("bench.ref_p99_ms", median(refP99), "ms");
    L.set("bench.gen_lag_ms.p99", median(refLag), "ms");
    L.set("bench.max_rate_rps", maxRate, "1/s");
    return o;
}

} // namespace perfbench
