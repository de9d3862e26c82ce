/**
 * @file
 * Unit tests for the simulation kernel and synthetic traffic sources.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "network/noc_system.hh"
#include "sim/kernel.hh"
#include "traffic/synthetic_traffic.hh"
#include "verify/static/config_lint.hh"
#include "verify/static/config_registry.hh"

namespace nord {
namespace {

/** Records the cycles and order in which it was ticked. */
class Probe : public Clocked
{
  public:
    explicit Probe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick(Cycle) override { log_->push_back(id_); }
    std::string name() const override { return "probe"; }

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(SimKernel, TicksInRegistrationOrder)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    Probe b(&log, 2);
    Probe c(&log, 3);
    kernel.add(&a);
    kernel.add(&b);
    kernel.add(&c);
    kernel.run(2);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1, 2, 3}));
    EXPECT_EQ(kernel.now(), 2u);
}

TEST(SimKernel, RunUntilStopsAtPredicate)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    kernel.add(&a);
    bool hit = kernel.runUntil([&] { return log.size() >= 5; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(kernel.now(), 5u);
}

TEST(SimKernel, RunUntilHonorsLimit)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    kernel.add(&a);
    bool hit = kernel.runUntil([] { return false; }, 7);
    EXPECT_FALSE(hit);
    EXPECT_EQ(kernel.now(), 7u);
}

/**
 * Probe with a controllable quiescence flag and a wake hook, to exercise
 * the kernel's active list directly.
 */
class SleepyProbe : public Clocked
{
  public:
    SleepyProbe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick(Cycle) override
    {
        log_->push_back(id_);
        ++ticks;
        if (wakeTarget != nullptr) {
            wakeTarget->kernelWake();
            wakeTarget = nullptr;
        }
    }
    bool quiescent() const override { return sleepy; }
    std::string name() const override { return "sleepy"; }

    bool sleepy = false;
    int ticks = 0;
    Clocked *wakeTarget = nullptr;  ///< woken during our next tick

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(SimKernel, QuiescentObjectsAreSkipped)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    SleepyProbe b(&log, 2);
    kernel.add(&a);
    kernel.add(&b);
    a.sleepy = true;
    kernel.run(1);
    // Cycle 0: both tick (a's quiescence is only observed after its
    // tick), then a drops off the active list.
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(kernel.tickedLastCycle(), 2u);
    EXPECT_FALSE(kernel.isActive(&a));
    EXPECT_TRUE(kernel.isActive(&b));
    kernel.run(3);
    EXPECT_EQ(a.ticks, 1);
    EXPECT_EQ(b.ticks, 4);
    EXPECT_EQ(kernel.tickedLastCycle(), 1u);
    EXPECT_EQ(kernel.skippedLastCycle(), 1u);
    EXPECT_EQ(kernel.skippedTotal(), 3u);
}

TEST(SimKernel, WakeRearmsASkippedObject)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    kernel.add(&a);
    a.sleepy = true;
    kernel.run(2);
    EXPECT_EQ(a.ticks, 1);
    a.sleepy = false;
    a.kernelWake();
    kernel.run(2);
    EXPECT_EQ(a.ticks, 3);
    EXPECT_TRUE(kernel.isActive(&a));
    // Waking an already-active object is a no-op.
    a.kernelWake();
    kernel.run(1);
    EXPECT_EQ(a.ticks, 4);
}

TEST(SimKernel, WakeOfLaterSlotTicksSameCycle)
{
    // Satellite regression: a producer waking a consumer registered
    // AFTER it must see the consumer tick the very same cycle -- exactly
    // what the serial kernel would do.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe producer(&log, 1);
    SleepyProbe consumer(&log, 2);
    kernel.add(&producer);
    kernel.add(&consumer);
    consumer.sleepy = true;
    kernel.run(1);  // consumer ticks once, then parks
    log.clear();
    consumer.sleepy = false;
    producer.wakeTarget = &consumer;
    kernel.run(1);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(SimKernel, WakeOfEarlierSlotDuringTickDoesNotInvalidateIteration)
{
    // Satellite regression (the registration-order hazard): an NI-like
    // object waking a router-like object registered BEFORE it, mid-cycle,
    // must neither re-tick the earlier object this cycle (serially its
    // tick already happened as a no-op) nor skip/corrupt the rest of the
    // pass.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe router(&log, 1);
    SleepyProbe ni(&log, 2);
    SleepyProbe after(&log, 3);
    kernel.add(&router);
    kernel.add(&ni);
    kernel.add(&after);
    router.sleepy = true;
    kernel.run(1);  // router parks after this cycle
    log.clear();
    router.sleepy = false;
    ni.wakeTarget = &router;
    kernel.run(1);
    // The woken (earlier) router must NOT run this cycle; `after` must
    // still run exactly once.
    EXPECT_EQ(log, (std::vector<int>{2, 3}));
    log.clear();
    kernel.run(1);
    // Next cycle the router is back in registration order.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(SimKernel, SelfWakeDuringOwnTickIsSafe)
{
    // An object that re-arms itself from inside its own tick while
    // reporting quiescent must not break the pass; the self-wake lands
    // after the erase, so it stays active for the next cycle.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    SleepyProbe b(&log, 2);
    kernel.add(&a);
    kernel.add(&b);
    a.sleepy = true;
    b.wakeTarget = &a;  // b wakes a in the same cycle a parks
    kernel.run(1);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_TRUE(kernel.isActive(&a));
    kernel.run(1);
    EXPECT_EQ(a.ticks, 2);
}

TEST(SimKernel, SkipDisabledTicksEverything)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    kernel.add(&a);
    a.sleepy = true;
    kernel.setSkipEnabled(false);
    kernel.run(5);
    EXPECT_EQ(a.ticks, 5);
    EXPECT_EQ(kernel.skippedTotal(), 0u);
    // Re-enabling re-arms everything and resumes skipping.
    kernel.setSkipEnabled(true);
    kernel.run(5);
    EXPECT_EQ(a.ticks, 6);
}

TEST(SimKernel, TickedPlusSkippedCoversGatedSet)
{
    // System-level counter check: every cycle ticked + skipped must
    // cover all components, and once an idle NoRD network settles with
    // every router gated, every gated router must actually be off the
    // active list (its links drain and park alongside it).
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    NocSystem sys(cfg);
    sys.run(400);  // no traffic: all 16 routers gate off and settle
    ASSERT_EQ(sys.countInState(PowerState::kOff), cfg.numNodes());
    for (int i = 0; i < 50; ++i) {
        sys.run(1);
        EXPECT_EQ(sys.kernel().tickedLastCycle() +
                      sys.kernel().skippedLastCycle(),
                  sys.kernel().numComponents());
        int gatedSkipped = 0;
        for (NodeId id = 0; id < cfg.numNodes(); ++id) {
            ASSERT_EQ(sys.controller(id).state(), PowerState::kOff);
            if (!sys.kernel().isActive(&sys.router(id)))
                ++gatedSkipped;
        }
        EXPECT_EQ(gatedSkipped, cfg.numNodes());
        // The skipped set covers at least the gated routers.
        EXPECT_GE(sys.kernel().skippedLastCycle(),
                  static_cast<std::uint64_t>(cfg.numNodes()));
    }
    // Traffic through the parked fabric still delivers: the wake edges
    // re-register the skipped links/routers as the flit advances.
    const std::uint64_t delivered = sys.stats().packetsDelivered();
    sys.inject(0, 15, 4);
    ASSERT_TRUE(sys.runToCompletion(5000));
    EXPECT_EQ(sys.stats().packetsDelivered(), delivered + 1);
}

TEST(SyntheticTraffic, RateIsRespected)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 3);
    sys.setWorkload(&traffic);
    sys.run(50000);
    // flits injected ~= rate * nodes * cycles.
    const double expected = 0.10 * 16 * 50000;
    EXPECT_NEAR(static_cast<double>(sys.stats().flitsInjected()),
                expected, 0.08 * expected);
}

TEST(SyntheticTraffic, BimodalLengths)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 3);
    sys.setWorkload(&traffic);
    sys.run(30000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(10000));
    // Average packet length must be ~(1+5)/2 = 3 flits.
    const double avgLen =
        static_cast<double>(sys.stats().flitsDelivered()) /
        static_cast<double>(sys.stats().packetsDelivered());
    EXPECT_NEAR(avgLen, 3.0, 0.2);
}

TEST(SyntheticTraffic, BitComplementDestinations)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    // Bit-complement of (r, c) in 4x4: (3-r, 3-c): node 0 -> 15.
    SyntheticTraffic traffic(TrafficPattern::kBitComplement, 0.05, 3);
    sys.setWorkload(&traffic);
    sys.run(5000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(10000));
    // All delivered at complement nodes: hop count == manhattan + 1 of
    // the complement pairs; for 4x4 all pairs have distance >= 2.
    EXPECT_GT(sys.stats().avgHops(), 3.0);
    EXPECT_EQ(sys.ni(15).packetsReceived(),
              sys.stats().packetsDelivered() - [&] {
                  std::uint64_t other = 0;
                  for (NodeId n = 0; n < 15; ++n)
                      other += sys.ni(n).packetsReceived();
                  return other;
              }());
}

TEST(SyntheticTraffic, PatternNames)
{
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kUniformRandom),
                 "uniform_random");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kBitComplement),
                 "bit_complement");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kTranspose),
                 "transpose");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kHotspot), "hotspot");
}

TEST(NocConfigTest, OversizedPerfCentricCountFailsBeforeAnalysis)
{
    // A 10x10 count of 500 must be rejected by validate() itself, before
    // NocSystem runs the criticality sweep for the shape.
    NocConfig cfg;
    cfg.rows = 10;
    cfg.cols = 10;
    cfg.design = PgDesign::kNord;
    cfg.nordPerfCentricCount = 500;
    EXPECT_EXIT({ cfg.validate(); }, ::testing::ExitedWithCode(1),
                "nordPerfCentricCount \\(500\\) exceeds the 100 routers");
    EXPECT_EXIT({ NocSystem sys(cfg); }, ::testing::ExitedWithCode(1),
                "nordPerfCentricCount");

    cfg.nordPerfCentricCount = 100;  // every router on: legal
    cfg.validate();
}

// One row per rule of NocConfig::problems(): a config that breaks it
// (and, where the shape allows, nothing else), and a fragment of the
// diagnosis. validate() must exit 1 on it and lintConfig() must report
// it -- both read the one rule list, so neither can drift from the other.
TEST(NocConfigTest, EveryRuleFailsValidateAndLint)
{
    const struct
    {
        const char *rule;
        void (*apply)(NocConfig &);
        const char *diagnosis;
    } kRules[] = {
        {"tiny mesh", [](NocConfig &c) { c.cols = 1; }, "at least 2x2"},
        {"odd rows", [](NocConfig &c) { c.rows = 3; }, "even row count"},
        {"one VC",
         [](NocConfig &c) {
             c.design = PgDesign::kConvPg;
             c.numVcs = 1;
             c.numEscapeVcs = 1;
         },
         "need at least 2 VCs"},
        {"no escape VC",
         [](NocConfig &c) {
             c.design = PgDesign::kConvPg;
             c.numEscapeVcs = 0;
         },
         "escape class is empty"},
        {"no adaptive VC", [](NocConfig &c) { c.numEscapeVcs = 4; },
         "adaptive class is empty"},
        {"NoRD single escape VC", [](NocConfig &c) { c.numEscapeVcs = 1; },
         "dateline"},
        {"zero buffer", [](NocConfig &c) { c.bufferDepth = 0; },
         "bufferDepth"},
        {"never escape",
         [](NocConfig &c) { c.escapeAfterBlockedCycles = 0; },
         "escapeAfterBlockedCycles"},
        {"negative misroute cap",
         [](NocConfig &c) { c.nordMisrouteCap = -1; }, "nordMisrouteCap"},
        {"instant wakeup", [](NocConfig &c) { c.wakeupLatency = 0; },
         "wakeupLatency"},
        {"empty wakeup window",
         [](NocConfig &c) { c.nordWakeupWindow = 0; }, "nordWakeupWindow"},
        {"zero threshold", [](NocConfig &c) { c.nordPerfThreshold = 0; },
         "wakeup thresholds"},
        {"inverted thresholds",
         [](NocConfig &c) {
             c.nordPerfThreshold = 3;
             c.nordPowerThreshold = 2;
         },
         "thresholds inverted"},
        {"negative power guard",
         [](NocConfig &c) { c.nordPowerSleepGuard = -1; }, "sleep guards"},
        {"negative perf guard",
         [](NocConfig &c) { c.nordPerfSleepGuard = -1; }, "sleep guards"},
        {"no starvation limit",
         [](NocConfig &c) { c.niStarvationLimit = 0; },
         "niStarvationLimit"},
        {"too many perf-centric",
         [](NocConfig &c) { c.nordPerfCentricCount = 17; },
         "exceeds the 16 routers"},
        {"zero stall threshold",
         [](NocConfig &c) {
             c.verify.interval = 1;
             c.verify.stallThreshold = 0;
         },
         "verify.stallThreshold"},
        {"zero flit age",
         [](NocConfig &c) {
             c.verify.interval = 1;
             c.verify.maxFlitAge = 0;
         },
         "verify.maxFlitAge"},
        {"rate above one",
         [](NocConfig &c) {
             c.fault.enabled = true;
             c.fault.flitDropRate = 1.5;
         },
         "probabilities"},
        {"scheduled fault off the mesh",
         [](NocConfig &c) {
             c.fault.enabled = true;
             c.fault.schedule.push_back(
                 {100, FaultClass::kDeadRouter, 16, 0});
         },
         "outside the 4x4 mesh"},
        {"scheduled transient fault",
         [](NocConfig &c) {
             c.fault.enabled = true;
             c.fault.schedule.push_back(
                 {100, FaultClass::kFlitDrop, 5, 0});
         },
         "transient classes are rate-driven"},
        {"zero retransmit timeout",
         [](NocConfig &c) {
             c.fault.e2e = true;
             c.fault.retransTimeout = 0;
         },
         "fault.retransTimeout"},
        {"zero backoff",
         [](NocConfig &c) {
             c.fault.e2e = true;
             c.fault.retransBackoff = 0;
         },
         "fault.retransBackoff"},
        {"negative retry limit",
         [](NocConfig &c) {
             c.fault.e2e = true;
             c.fault.retryLimit = -1;
         },
         "fault.retryLimit"},
    };
    for (const auto &r : kRules) {
        SCOPED_TRACE(r.rule);
        NocConfig cfg;  // 4x4 NoRD, Table 1
        r.apply(cfg);
        ASSERT_FALSE(cfg.problems().empty());
        EXPECT_NE(cfg.problems().front().find(r.diagnosis),
                  std::string::npos)
            << cfg.problems().front();
        EXPECT_EXIT({ cfg.validate(); }, ::testing::ExitedWithCode(1),
                    r.diagnosis);
        const LintResult lint = lintConfig(cfg);
        bool reported = false;
        for (const std::string &p : lint.problems)
            reported = reported || p.find(r.diagnosis) != std::string::npos;
        EXPECT_TRUE(reported) << lint.summary();
    }
}

// Every operating point the shipped matrix, the benches and the examples
// build must pass the one rule list (and hence both validate() and the
// lint): a new rule that rejects a shipped config is a regression.
TEST(NocConfigTest, ShippedBenchAndExampleConfigsValidate)
{
    std::vector<std::pair<std::string, NocConfig>> configs;
    for (const NamedConfig &named : shippedConfigs())
        configs.emplace_back(named.name, named.config);
    NocConfig base;
    base.design = PgDesign::kNord;
    for (int req = 1; req <= 5; ++req) {  // fig07_wakeup_threshold
        NocConfig c = base;
        c.nordPerfThreshold = req;
        c.nordPowerThreshold = req;
        c.nordPerfCentricCount = 0;
        configs.emplace_back("fig07 req=" + std::to_string(req), c);
    }
    for (int d = 1; d < 4; ++d) {  // fig13_wakeup_latency
        for (int wl : {9, 12, 15, 18}) {
            NocConfig c;
            c.design = static_cast<PgDesign>(d);
            c.wakeupLatency = wl;
            configs.emplace_back("fig13 wl=" + std::to_string(wl), c);
        }
    }
    {  // ablation_nord
        NocConfig c = base;
        c.nordPerfCentricCount = 0;
        configs.emplace_back("ablation no-perf", c);
        c.nordPerfCentricCount = c.numNodes();
        configs.emplace_back("ablation all-perf", c);
        c = base;
        c.nordPerfThreshold = 2;
        c.nordPowerThreshold = 2;
        c.nordPerfSleepGuard = 6;
        c.nordPowerSleepGuard = 6;
        configs.emplace_back("ablation uniform-thr", c);
        c = base;
        c.nordPerfCentricCount = 10;
        configs.emplace_back("ablation perf-10", c);
    }
    {  // design_space
        NocConfig c = base;
        c.bufferDepth = 2;
        configs.emplace_back("design_space shallow", c);
        c.bufferDepth = 10;
        configs.emplace_back("design_space deep", c);
        c = base;
        c.numVcs = 6;
        c.numEscapeVcs = 2;
        configs.emplace_back("design_space 6 VCs", c);
        c = base;
        c.wakeupLatency = 20;
        configs.emplace_back("design_space slow wakeup", c);
        c = base;
        c.nordAggressiveBypass = true;
        configs.emplace_back("design_space aggressive", c);
    }
    {  // resilience_sweep / nordbench / perf_campaign_point fault points
        NocConfig c = base;
        c.rows = 8;
        c.cols = 8;
        c.fault.enabled = true;
        c.fault.e2e = true;
        c.fault.flitCorruptRate = 1e-4;
        c.fault.flitDropRate = 1e-4;
        c.fault.creditLeakRate = 5e-5;
        c.verify.interval = 256;
        c.verify.policy = AuditPolicy::kRecover;
        configs.emplace_back("fault campaign 8x8", c);
    }
    for (const auto &[name, cfg] : configs) {
        for (const std::string &p : cfg.problems())
            ADD_FAILURE() << name << ": " << p;
    }
}

TEST(NocConfigTest, VcClassHelpers)
{
    NocConfig cfg;  // 4 VCs, 2 escape
    EXPECT_EQ(cfg.vcClassOf(0), VcClass::kEscape);
    EXPECT_EQ(cfg.vcClassOf(1), VcClass::kEscape);
    EXPECT_EQ(cfg.vcClassOf(2), VcClass::kAdaptive);
    EXPECT_EQ(cfg.vcClassOf(3), VcClass::kAdaptive);
    EXPECT_EQ(cfg.firstVcOf(VcClass::kEscape), 0);
    EXPECT_EQ(cfg.firstVcOf(VcClass::kAdaptive), 2);
    EXPECT_EQ(cfg.numVcsOf(VcClass::kEscape), 2);
    EXPECT_EQ(cfg.numVcsOf(VcClass::kAdaptive), 2);
}

TEST(TypesTest, DirectionHelpers)
{
    EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
    EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
    EXPECT_EQ(opposite(Direction::kLocal), Direction::kLocal);
    EXPECT_EQ(indexDir(dirIndex(Direction::kWest)), Direction::kWest);
    EXPECT_STREQ(pgDesignName(PgDesign::kNord), "NoRD");
    EXPECT_STREQ(powerStateName(PowerState::kWakingUp), "waking");
    EXPECT_TRUE(isHead(FlitType::kHeadTail));
    EXPECT_TRUE(isTail(FlitType::kHeadTail));
    EXPECT_FALSE(isHead(FlitType::kBody));
    EXPECT_FALSE(isTail(FlitType::kHead));
}

}  // namespace
}  // namespace nord
