/**
 * @file
 * nordbench: executor of the repository benchmark (see README.md).
 *
 * Reads simulation points on stdin, one per line:
 *
 *   <set> <design> <rows> <cols> <workload> <rate> <seed> <measure>
 *   <faultRate> <ckptEvery>
 *
 * <set> numbers the input sets 0, 1, 2, ... (one set is one job, e.g.
 * the whole PARSEC figure campaign with its own scripts). <workload> is
 * "uniform" (open loop at <rate> flits/node/cycle for <measure> cycles,
 * then drain) or "parsec:<name>" (closed loop, run to completion).
 * <faultRate> > 0 selects the resilience recipe of
 * src/campaign/campaign_point.cc (corrupt + drop faults, E2E, auditor
 * every 256 cycles with kRecover); <ckptEvery> > 0 saves a checkpoint
 * every that many cycles and resumes once mid-run from one.
 *
 * The points run back to back as one batch client (a closed loop). One
 * pass runs one input set from a cold CriticalityCache, as a fresh
 * process would. Pass k runs set k; passes repeat until --seconds have
 * elapsed and at least the first --sets sets have run. Only those sets'
 * simulated results are reported, so they do not depend on how fast the
 * host is. Every call into a layer is timed from here (see nowSec()),
 * through the library's public API:
 *   setup      NocSystem constructor (criticality analysis inside it)
 *   simulate   NocSystem::run / runToCompletion
 *   checkpoint saveCheckpoint / loadCheckpoint / stateHash
 *   drain      NocSystem::runTowardCompletion after detaching the workload
 *   report     finalizeStats, PowerModel::compute, checks, teardown
 * With --trace FILE, passes come in pairs over one set, the second one
 * traced: it splits setup into a cold CriticalityCache call and a warm
 * constructor, records every span (name, start, end, parent) in memory
 * and writes them as Chrome trace-event JSON at exit. After a traced
 * pass the auditor's sweep cost is timed on a twin system restored from
 * the mid-run checkpoint, so the measured system is never swept from
 * outside.
 *
 * Every point is checked: it completes or drains within its budget,
 * delivered + abandoned packets equal created packets, the auditor saw
 * no unexpected violation, stateHash() is unchanged across the mid-run
 * resume, and a traced pass reproduces its untraced twin exactly. With
 * --self-test one pass runs set 0 and each of its points is also
 * compared against the real code paths: bench_util.hh's runParsec and
 * campaign::runPointWorker.
 *
 * Output: one JSON object on stdout with per-pass host timings and the
 * per-point results of the reported sets; run.py reduces it to the
 * metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "bench_util.hh"
#include "campaign/campaign_point.hh"
#include "ckpt/checkpoint.hh"
#include "common/log.hh"
#include "network/noc_system.hh"
#include "power/power_model.hh"
#include "topology/criticality.hh"
#include "traffic/parsec_workload.hh"
#include "traffic/synthetic_traffic.hh"

// --- Allocation counting -----------------------------------------------------
//
// Every operator new in the process bumps this counter; the simulate and
// drain calls difference it, giving the exact allocations per simulated
// cycle. The benchmark is single-threaded.

namespace {
std::uint64_t g_allocs = 0;  // NOLINT: process-wide counter
}  // namespace

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Out of line, so GCC does not pair the inlined malloc/free with new/delete.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void *p) noexcept { operator delete(p); }
void operator delete[](void *p, std::size_t) noexcept { operator delete(p); }

namespace nord {
namespace {

/** Extra cycles a synthetic point may take to drain (as the worker). */
constexpr Cycle kDrainBudget = 500'000;
/** Cycle limit of a closed-loop point (as bench_util.hh's runParsec). */
constexpr Cycle kParsecLimit = 30'000'000;

/**
 * The benchmark's clock: CPU time of the (only) thread. On a shared
 * virtual machine it leaves out time the CPU was stolen or the thread
 * was descheduled, which wall-clock time would add as noise; it also
 * leaves out I/O waits such as a checkpoint's fsync.
 */
double
nowSec()
{
    struct timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Elapsed real time; only paces the run against --seconds. */
double
elapsedSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- Tracing -----------------------------------------------------------------

/** In-memory span recorder; does nothing while off. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;  ///< index of the enclosing span, -1 at top level
    };

    bool on = false;

    void open(const char *name)
    {
        if (!on)
            return;
        spans_.push_back(
            {name, nowSec(), 0.0, stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void close()
    {
        if (!on)
            return;
        spans_[static_cast<std::size_t>(stack_.back())].end = nowSec();
        stack_.pop_back();
    }

    /** Host seconds covered by the children of span @p parent. */
    double childSeconds(int parent) const
    {
        double s = 0.0;
        for (const Span &sp : spans_)
            if (sp.parent == parent)
                s += sp.end - sp.start;
        return s;
    }

    int last() const { return static_cast<int>(spans_.size()) - 1; }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    bool write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                          i ? "," : "", s.name, (s.start - t0) * 1e6,
                          (s.end - s.start) * 1e6, i, s.parent);
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer g_tracer;  // NOLINT: one recorder per process

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const char *name) { g_tracer.open(name); }
    ~Scope() { g_tracer.close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
};

// --- Inputs --------------------------------------------------------------------

struct Point
{
    std::size_t set = 0;
    std::string designName;
    PgDesign design = PgDesign::kNoPg;
    int rows = 4;
    int cols = 4;
    std::string workload;  ///< "uniform" or "parsec:<name>"
    double rate = 0.0;
    std::uint64_t seed = 1;
    Cycle measure = 0;
    double faultRate = 0.0;
    Cycle ckptEvery = 0;

    bool parsec() const { return workload.rfind("parsec:", 0) == 0; }
    std::string parsecName() const { return workload.substr(7); }
};

bool
parseDesign(const std::string &s, PgDesign *out)
{
    for (int d = 0; d < 4; ++d) {
        if (s == pgDesignName(static_cast<PgDesign>(d))) {
            *out = static_cast<PgDesign>(d);
            return true;
        }
    }
    return false;
}

/** Read the input sets; sets must be numbered 0, 1, 2, ... in order. */
bool
readSets(std::istream &in, std::vector<std::vector<Point>> *sets)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        Point p;
        if (!(ls >> p.set >> p.designName >> p.rows >> p.cols >> p.workload >>
              p.rate >> p.seed >> p.measure >> p.faultRate >>
              p.ckptEvery) ||
            !parseDesign(p.designName, &p.design) || p.rows < 2 ||
            p.cols < 2 ||
            (p.set != sets->size() && p.set + 1 != sets->size())) {
            std::fprintf(stderr, "nordbench: bad point line: %s\n",
                         line.c_str());
            return false;
        }
        if (p.parsec()) {
            bool known = false;
            for (const ParsecParams &pp : parsecSuite())
                known = known || pp.name == p.parsecName();
            if (!known) {
                std::fprintf(stderr, "nordbench: unknown PARSEC model "
                             "in: %s\n", line.c_str());
                return false;
            }
        } else if (p.workload != "uniform" || p.measure == 0) {
            std::fprintf(stderr, "nordbench: bad workload in: %s\n",
                         line.c_str());
            return false;
        }
        if (p.set == sets->size())
            sets->emplace_back();
        sets->back().push_back(p);
    }
    return !sets->empty();
}

/** The point as a campaign PointSpec (the worker's view of it). */
campaign::PointSpec
toSpec(const Point &p, std::uint64_t id)
{
    campaign::PointSpec s;
    s.id = id;
    s.design = p.design;
    s.rows = p.rows;
    s.cols = p.cols;
    s.seed = p.seed;
    s.faultRate = p.faultRate;
    if (p.parsec()) {
        s.kind = campaign::WorkloadKind::kParsec;
        s.parsec = p.parsecName();
        s.rate = 0.0;
    } else {
        s.kind = campaign::WorkloadKind::kSynthetic;
        s.pattern = TrafficPattern::kUniformRandom;
        s.rate = p.rate;
        s.measure = p.measure;
    }
    return s;
}

/**
 * The configuration a point runs under: bench_util.hh's makeConfig for
 * PARSEC points, campaign_point.cc's recipe for synthetic points.
 */
NocConfig
configFor(const Point &p)
{
    NocConfig cfg = bench::makeConfig(p.design, p.rows, p.cols);
    if (p.parsec())
        return cfg;
    cfg.seed = p.seed;
    if (p.faultRate > 0.0) {
        cfg.fault.enabled = true;
        cfg.fault.e2e = true;
        cfg.fault.flitCorruptRate = p.faultRate;
        cfg.fault.flitDropRate = p.faultRate;
        cfg.verify.interval = 256;
        cfg.verify.policy = AuditPolicy::kRecover;
    }
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(const Point &p)
{
    if (p.parsec())
        return std::make_unique<ParsecWorkload>(
            parsecByName(p.parsecName()), p.seed);
    return std::make_unique<SyntheticTraffic>(
        TrafficPattern::kUniformRandom, p.rate, p.seed);
}

// --- One point ---------------------------------------------------------------

/** Host time of one pass, split by layer. */
struct PassTimes
{
    bool traced = false;
    double wall = 0.0;         ///< on the benchmark clock (CPU time)
    double elapsed = 0.0;      ///< real time, CPU steal and waits included
    double setup = 0.0;        ///< constructors (+ cold criticality call)
    double criticality = 0.0;  ///< traced: cold CriticalityCache calls
    double construct = 0.0;    ///< traced: constructors, cache warm
    double sim = 0.0;          ///< simulate + drain calls
    double covered = 0.0;      ///< traced: top-level spans
    std::map<std::string, double> simByDesign;
    std::vector<double> saveSec, loadSec, hashSec;
    double sweepSec = 0.0;     ///< traced: one auditor sweep on a twin
    // Simulated work of the pass, to normalize its times.
    std::uint64_t cycles = 0, xbar = 0, sweeps = 0;
};

/** Simulated outcome of one point; identical on every pass. */
struct PointResult
{
    bool ok = true;
    std::string why;

    Cycle cycles = 0;
    std::uint64_t created = 0, delivered = 0, failed = 0;
    double latency = 0.0, p99 = 0.0, hops = 0.0;
    double staticJ = 0.0, energyJ = 0.0;
    std::uint64_t wakeups = 0, offCycles = 0, stateCycles = 0;
    std::uint64_t xbar = 0, grants = 0, bypassForwards = 0;
    std::uint64_t ticked = 0, skipped = 0, simAllocs = 0;
    std::uint64_t sweeps = 0, periodicSweeps = 0;
    std::uint64_t injected = 0, retransmits = 0, timeouts = 0, nacks = 0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t finalHash = 0;
    std::uint64_t fingerprint = 0;  ///< NocSystem::configFingerprint()
    bool drained = false;

    void fail(const std::string &reason)
    {
        if (ok)
            why = reason;
        ok = false;
    }

    /** Everything the simulation decides (host-independent). */
    auto key() const
    {
        return std::make_tuple(cycles, created, delivered, failed, latency,
                               p99, staticJ, energyJ, wakeups, xbar,
                               ticked, simAllocs, sweeps, finalHash);
    }
};

/** Where a point keeps its checkpoint files. */
struct CkptFiles
{
    std::string rolling;  ///< overwritten every ckptEvery cycles
    std::string mid;      ///< the mid-run checkpoint resumed from
};

/** Simulate/drain call: host time, allocations, optional span. */
template <class F>
void
simCall(const char *span, const Point &p, PassTimes &t, PointResult &r,
        F &&body)
{
    Scope s(span);
    const std::uint64_t a0 = g_allocs;
    const double t0 = nowSec();
    body();
    const double dt = nowSec() - t0;
    r.simAllocs += g_allocs - a0;
    t.sim += dt;
    t.simByDesign[p.designName] += dt;
}

bool
timedSave(NocSystem &sys, const std::string &path, PassTimes &t,
          PointResult &r)
{
    Scope s("ckpt.save");
    std::string err;
    const double t0 = nowSec();
    const bool ok = sys.saveCheckpoint(path, {}, &err);
    t.saveSec.push_back(nowSec() - t0);
    if (!ok)
        r.fail("checkpoint save failed: " + err);
    return ok;
}

std::uint64_t
timedHash(const NocSystem &sys, PassTimes &t)
{
    Scope s("ckpt.hash");
    const double t0 = nowSec();
    const std::uint64_t h = sys.stateHash();
    t.hashSec.push_back(nowSec() - t0);
    return h;
}

/**
 * Time auditor sweeps on a twin of @p p restored from @p ckpt. Sweeping
 * changes serialized state, so the measured system is never swept.
 */
double
sweepSecondsOnTwin(const Point &p, const std::string &ckpt)
{
    std::unique_ptr<Workload> wl = makeWorkload(p);
    NocSystem twin(configFor(p));
    twin.setWorkload(wl.get());
    std::string err;
    if (!twin.loadCheckpoint(ckpt, nullptr, &err)) {
        std::fprintf(stderr, "nordbench: twin restore failed: %s\n",
                     err.c_str());
        return 0.0;
    }
    std::vector<double> batches;
    constexpr int kSweeps = 20;
    for (int b = 0; b < 7; ++b) {
        const double t0 = nowSec();
        for (int i = 0; i < kSweeps; ++i)
            twin.auditor().sweep(twin.now());
        batches.push_back((nowSec() - t0) / kSweeps);
    }
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
}

PointResult
runPoint(const Point &p, PassTimes &t, const CkptFiles &files,
         const PowerModel &pm)
{
    PointResult r;
    const NocConfig cfg = configFor(p);

    std::unique_ptr<NocSystem> sys;
    {
        Scope s("setup");
        const double t0 = nowSec();
        if (g_tracer.on && cfg.design == PgDesign::kNord) {
            // The constructor's CriticalityCache calls, made cold here so
            // the constructor below runs against a warm cache.
            Scope c("topology.criticality");
            const MeshTopology mesh(cfg.rows, cfg.cols);
            const BypassRing ring(mesh);
            CriticalityCache &cache = CriticalityCache::instance();
            int count = cfg.nordPerfCentricCount;
            if (count < 0)
                count = cache.knee(mesh, ring);
            cache.steering(mesh, ring, cache.perfSet(mesh, ring, count));
            t.criticality += nowSec() - t0;
        }
        const double t1 = nowSec();
        {
            Scope c("network.construct");
            sys = std::make_unique<NocSystem>(cfg);
        }
        t.construct += nowSec() - t1;
        t.setup += nowSec() - t0;
    }

    std::unique_ptr<Workload> wl = makeWorkload(p);
    sys->setWorkload(wl.get());
    bool done = false;
    if (p.parsec()) {
        simCall("simulate", p, t, r,
                [&] { done = sys->runToCompletion(kParsecLimit); });
    } else {
        const Cycle every = p.ckptEvery;
        bool resumed = false;
        while (sys->now() < p.measure) {
            const Cycle left = p.measure - sys->now();
            const Cycle chunk = every ? std::min(every, left) : left;
            simCall("simulate", p, t, r, [&] { sys->run(chunk); });
            if (!every)
                continue;
            Scope s("checkpoint");
            const bool mid = !resumed && sys->now() >= p.measure / 2;
            const std::string &path = mid ? files.mid : files.rolling;
            if (!timedSave(*sys, path, t, r))
                break;
            if (mid) {
                resumed = true;
                const std::uint64_t before = timedHash(*sys, t);
                {
                    Scope l("ckpt.load");
                    std::string err;
                    const double t0 = nowSec();
                    if (!sys->loadCheckpoint(path, nullptr, &err))
                        r.fail("resume failed: " + err);
                    t.loadSec.push_back(nowSec() - t0);
                }
                if (timedHash(*sys, t) != before)
                    r.fail("stateHash changed across the mid-run resume");
                std::error_code ec;
                r.ckptBytes = std::filesystem::file_size(path, ec);
            }
        }
        sys->setWorkload(nullptr);
        if (every) {
            Scope s("checkpoint");
            timedSave(*sys, files.rolling, t, r);
        }
        const Cycle limit = p.measure + kDrainBudget;
        done = sys->completionReached();
        while (!done && sys->now() < limit) {
            const Cycle left = limit - sys->now();
            const Cycle chunk = every ? std::min(every, left) : left;
            simCall("drain", p, t, r,
                    [&] { done = sys->runTowardCompletion(chunk); });
            if (!done && every) {
                Scope s("checkpoint");
                timedSave(*sys, files.rolling, t, r);
            }
        }
    }

    Scope s("report");
    sys->finalizeStats();
    const NetworkStats &st = sys->stats();
    const ActivityCounters tot = st.totals();
    const int numLinks = 2 * (p.rows * (p.cols - 1) + p.cols * (p.rows - 1));
    const EnergyBreakdown e =
        pm.compute(st, sys->now(), numLinks, cfg.design, cfg.betCycles);
    const FlowStats flows = st.flowTotals();

    r.drained = sys->completionReached();
    r.cycles = sys->now();
    r.created = st.packetsCreated();
    r.delivered = st.packetsDelivered();
    r.failed = st.packetsFailed();
    r.latency = st.avgPacketLatency();
    r.p99 = st.latencyPercentile(0.99);
    r.hops = st.avgHops();
    r.staticJ = e.routerStatic + e.pgOverhead;
    r.energyJ = e.total();
    r.wakeups = st.totalWakeups();
    r.offCycles = tot.offCycles;
    r.stateCycles = tot.onCycles + tot.offCycles + tot.wakingCycles;
    r.xbar = tot.xbarTraversals;
    r.grants = tot.vcAllocs + tot.swAllocs;
    r.bypassForwards = tot.bypassForwards;
    r.ticked = sys->kernel().tickedTotal();
    r.skipped = sys->kernel().skippedTotal();
    r.sweeps = sys->auditor().sweepCount();
    if (cfg.verify.interval > 0 && r.cycles > 0)
        r.periodicSweeps = (r.cycles - 1) / cfg.verify.interval + 1;
    if (sys->injector())
        r.injected = sys->injector()->counts().total();
    r.retransmits = flows.retransmits;
    r.timeouts = flows.timeouts;
    r.nacks = flows.nacks;
    r.finalHash = sys->stateHash();
    r.fingerprint = sys->configFingerprint();

    if (!done)
        r.fail("did not complete within its cycle budget");
    if (r.delivered + r.failed != r.created)
        r.fail("delivered + abandoned != created packets");
    if (sys->auditor().unexpectedViolations() != 0)
        r.fail("auditor reported unexpected violations");
    sys.reset();
    return r;
}

// --- Cross-checks against the real code paths --------------------------------

/** The result line campaign::runPointWorker writes for this outcome. */
std::string
workerLine(const campaign::PointSpec &spec, const PointResult &r)
{
    std::string line = campaign::specJson(spec);
    line.pop_back();
    const double fraction = r.created > 0
        ? static_cast<double>(r.delivered) / static_cast<double>(r.created)
        : 1.0;
    const double offFraction = r.stateCycles > 0
        ? static_cast<double>(r.offCycles) /
              static_cast<double>(r.stateCycles)
        : 0.0;
    line += detail::formatString(
        ",\"status\":\"ok\",\"endCycle\":%llu,\"created\":%llu,"
        "\"delivered\":%llu,\"failed\":%llu,\"deliveredFraction\":%.6f,"
        "\"avgLatency\":%.6f,\"p99Latency\":%.6f,\"avgHops\":%.6f,"
        "\"wakeups\":%llu,\"offFraction\":%.6f,\"energyJ\":%.6e,"
        "\"injectedFaults\":%llu,\"drained\":%s}",
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.created),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.failed), fraction, r.latency,
        r.p99, r.hops, static_cast<unsigned long long>(r.wakeups),
        offFraction, r.energyJ,
        static_cast<unsigned long long>(r.injected),
        r.drained ? "true" : "false");
    return line + "\n";
}

/** Compare @p r against the real code path for @p p; "" when equal. */
std::string
crossCheck(const Point &p, const PointResult &r, std::uint64_t id,
           const std::string &scratch, const PowerModel &pm)
{
    if (p.parsec()) {
        const bench::RunResult ref =
            bench::runParsec(p.design, parsecByName(p.parsecName()), pm,
                             p.rows, p.cols, p.seed);
        const double refOff = ref.offFraction;
        const double off = r.stateCycles > 0
            ? static_cast<double>(r.offCycles) /
                  static_cast<double>(r.stateCycles)
            : 0.0;
        if (ref.cycles != r.cycles || ref.avgLatency != r.latency ||
            ref.staticEnergy() != r.staticJ ||
            ref.delivered != r.delivered || ref.wakeups != r.wakeups ||
            refOff != off)
            return detail::formatString(
                "runParsec disagrees: cycles %llu vs %llu, latency %.9g "
                "vs %.9g",
                static_cast<unsigned long long>(ref.cycles),
                static_cast<unsigned long long>(r.cycles), ref.avgLatency,
                r.latency);
        return "";
    }
    const campaign::PointSpec spec = toSpec(p, id);
    const campaign::PointPaths paths = campaign::pointPaths(scratch, id);
    std::filesystem::remove(paths.checkpoint);
    std::filesystem::remove(paths.result);
    const int rc = campaign::runPointWorker(spec, paths, {});
    std::ifstream in(paths.result);
    std::stringstream got;
    got << in.rdbuf();
    // The worker's last checkpoint names the configuration it ran, which
    // the result line does not show (e.g. the auditor settings).
    CheckpointMeta meta;
    const bool haveMeta =
        readCheckpointFile(paths.checkpoint, &meta, nullptr, nullptr);
    std::filesystem::remove(paths.checkpoint);
    std::filesystem::remove(paths.result);
    const std::string want = workerLine(spec, r);
    if (rc != 0 || got.str() != want)
        return "runPointWorker disagrees (exit " + std::to_string(rc) +
               ")\n  worker:    " + got.str() + "  benchmark: " + want;
    if (!haveMeta || meta.configFingerprint != r.fingerprint)
        return "runPointWorker ran another configuration";
    return "";
}

// --- Output --------------------------------------------------------------------

double
peakRssMiB()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printList(const char *key, const std::vector<double> &v)
{
    std::printf("\"%s\":[", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%.9g", i ? "," : "", v[i]);
    std::printf("]");
}

void
printPass(const PassTimes &t)
{
    std::printf("{\"traced\":%s,\"wall_s\":%.9g,\"elapsed_s\":%.9g,"
                "\"setup_s\":%.9g,\"criticality_s\":%.9g,\"construct_s\":%.9g,"
                "\"sim_s\":%.9g,\"covered_s\":%.9g,\"sweep_s\":%.9g,"
                "\"cycles\":%llu,\"xbar\":%llu,\"sweeps\":%llu,",
                t.traced ? "true" : "false", t.wall, t.elapsed, t.setup,
                t.criticality, t.construct, t.sim, t.covered, t.sweepSec,
                static_cast<unsigned long long>(t.cycles),
                static_cast<unsigned long long>(t.xbar),
                static_cast<unsigned long long>(t.sweeps));
    printList("save_s", t.saveSec);
    std::printf(",");
    printList("load_s", t.loadSec);
    std::printf(",");
    printList("hash_s", t.hashSec);
    std::printf(",\"sim_s_by_design\":{");
    bool first = true;
    for (const auto &[d, s] : t.simByDesign) {
        std::printf("%s\"%s\":%.9g", first ? "" : ",", d.c_str(), s);
        first = false;
    }
    std::printf("}}");
}

void
printPoint(const Point &p, const PointResult &r)
{
    std::printf(
        "{\"set\":%zu,\"design\":\"%s\",\"workload\":\"%s\","
        "\"rate\":%.9g,"
        "\"cycles\":%llu,\"created\":%llu,\"delivered\":%llu,"
        "\"failed\":%llu,\"latency\":%.17g,\"static_j\":%.17g,"
        "\"wakeups\":%llu,\"off_cycles\":%llu,\"state_cycles\":%llu,"
        "\"xbar\":%llu,\"grants\":%llu,\"bypass_forwards\":%llu,"
        "\"ticked\":%llu,\"skipped\":%llu,\"sim_allocs\":%llu,"
        "\"sweeps\":%llu,\"periodic_sweeps\":%llu,\"injected\":%llu,"
        "\"retransmits\":%llu,\"timeouts\":%llu,\"nacks\":%llu,"
        "\"ckpt_bytes\":%llu}",
        p.set, p.designName.c_str(), p.workload.c_str(), p.rate,
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.created),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.failed), r.latency, r.staticJ,
        static_cast<unsigned long long>(r.wakeups),
        static_cast<unsigned long long>(r.offCycles),
        static_cast<unsigned long long>(r.stateCycles),
        static_cast<unsigned long long>(r.xbar),
        static_cast<unsigned long long>(r.grants),
        static_cast<unsigned long long>(r.bypassForwards),
        static_cast<unsigned long long>(r.ticked),
        static_cast<unsigned long long>(r.skipped),
        static_cast<unsigned long long>(r.simAllocs),
        static_cast<unsigned long long>(r.sweeps),
        static_cast<unsigned long long>(r.periodicSweeps),
        static_cast<unsigned long long>(r.injected),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.nacks),
        static_cast<unsigned long long>(r.ckptBytes));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: nordbench --seconds S --sets K --scratch DIR "
                 "[--trace FILE] [--self-test] < points\n");
    return 2;
}

/** One point's outcome in a reported set. */
struct Reported
{
    const Point *point;
    PointResult result;
};

int
benchMain(int argc, char **argv)
{
    double seconds = 0.0;
    int reportSets = 1;
    std::string scratch, traceFile;
    bool selfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--seconds" && i + 1 < argc)
            seconds = std::atof(argv[++i]);
        else if (a == "--sets" && i + 1 < argc)
            reportSets = std::max(1, std::atoi(argv[++i]));
        else if (a == "--scratch" && i + 1 < argc)
            scratch = argv[++i];
        else if (a == "--trace" && i + 1 < argc)
            traceFile = argv[++i];
        else if (a == "--self-test")
            selfTest = true;
        else
            return usage();
    }
    std::vector<std::vector<Point>> sets;
    if (scratch.empty() || !readSets(std::cin, &sets))
        return usage();
    if (selfTest)
        reportSets = 1;
    if (static_cast<std::size_t>(reportSets) > sets.size()) {
        std::fprintf(stderr, "nordbench: --sets %d but only %zu input "
                     "sets\n", reportSets, sets.size());
        return 2;
    }
    std::filesystem::create_directories(scratch);
    const CkptFiles files{scratch + "/rolling.ckpt", scratch + "/mid.ckpt"};

    // A traced run passes twice over each set, untraced then traced, so
    // the tracing overhead compares like with like.
    const bool trace = !traceFile.empty();
    const int perSet = trace ? 2 : 1;
    const int minPasses = selfTest ? 1 : reportSets * perSet;
    constexpr double kPassDeadline = 150.0;  // never start a pass later

    const PowerModel pm;
    std::vector<PassTimes> passes;
    std::vector<Reported> reported;
    std::vector<PointResult> previous;  // the untraced twin of a pass
    std::uint64_t attempted = 0, failed = 0;
    const double start = elapsedSec();
    for (int n = 0;; ++n) {
        const double elapsed = elapsedSec() - start;
        if (n >= minPasses && (selfTest || elapsed >= seconds))
            break;
        if (n > 0 && elapsed + passes.back().elapsed > kPassDeadline)
            break;

        const std::vector<Point> &points =
            sets[static_cast<std::size_t>(n / perSet) % sets.size()];
        PassTimes t;
        t.traced = trace && n % 2 == 1;
        g_tracer.on = t.traced;
        CriticalityCache::instance().clear();  // as a fresh process
        g_tracer.open("pass");
        const int passSpan = g_tracer.last();
        const double e0 = elapsedSec();
        const double t0 = nowSec();
        const Point *mid = nullptr;
        std::vector<PointResult> results;
        for (std::size_t i = 0; i < points.size(); ++i) {
            PointResult r = runPoint(points[i], t, files, pm);
            ++attempted;
            if (t.traced && r.key() != previous[i].key())
                r.fail("traced pass differs from its untraced twin");
            if (!r.ok) {
                ++failed;
                std::fprintf(stderr, "nordbench: set %zu point %zu (%s %s) "
                             "failed: %s\n", points[i].set, i,
                             points[i].designName.c_str(),
                             points[i].workload.c_str(), r.why.c_str());
            }
            if (points[i].ckptEvery > 0 && points[i].faultRate > 0.0)
                mid = &points[i];
            t.cycles += r.cycles;
            t.xbar += r.xbar;
            t.sweeps += r.sweeps;
            results.push_back(r);
        }
        t.wall = nowSec() - t0;
        t.elapsed = elapsedSec() - e0;
        g_tracer.close();
        if (t.traced) {
            t.covered = g_tracer.childSeconds(passSpan);
            g_tracer.on = false;
            if (mid)
                t.sweepSec = sweepSecondsOnTwin(*mid, files.mid);
        }
        passes.push_back(std::move(t));
        if (n < minPasses && !passes.back().traced)
            for (std::size_t i = 0; i < points.size(); ++i)
                reported.push_back({&points[i], results[i]});
        previous = std::move(results);
    }
    std::filesystem::remove(files.rolling);

    std::string crossErr;
    if (selfTest) {
        for (std::size_t i = 0; i < reported.size() && crossErr.empty();
             ++i)
            crossErr = crossCheck(*reported[i].point, reported[i].result, i,
                                  scratch, pm);
        if (!crossErr.empty())
            std::fprintf(stderr, "nordbench: cross-check failed: %s\n",
                         crossErr.c_str());
    }
    std::filesystem::remove(files.mid);
    if (trace && !g_tracer.write(traceFile)) {
        std::fprintf(stderr, "nordbench: cannot write %s\n",
                     traceFile.c_str());
        return 1;
    }

    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"cross_check\":%s,"
                "\"peak_rss_mib\":%.9g,\"passes\":[",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                !selfTest ? "null" : crossErr.empty() ? "true" : "false",
                peakRssMiB());
    for (std::size_t i = 0; i < passes.size(); ++i) {
        std::printf(i ? ",\n" : "\n");
        printPass(passes[i]);
    }
    std::printf("],\"points\":[");
    for (std::size_t i = 0; i < reported.size(); ++i) {
        std::printf(i ? ",\n" : "\n");
        printPoint(*reported[i].point, reported[i].result);
    }
    std::printf("]}\n");
    return 0;
}

}  // namespace
}  // namespace nord

int
main(int argc, char **argv)
{
    return nord::benchMain(argc, argv);
}
