/**
 * @file
 * Shard-safety access-analysis tests.
 *
 * The contract under test: with verify.trackAccess on, every
 * cross-component access observed during a campaign matches a declared
 * ownership channel (AccessTracker::verify() is empty) for all four
 * power-gating designs; the negative paths -- a rogue write outside any
 * declared channel, a declared channel written from the wrong kernel
 * slot -- are flagged; and tracking is purely observational (bit-identical
 * stateHash with tracking on or off, same configFingerprint).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "network/noc_system.hh"
#include "traffic/synthetic_traffic.hh"
#include "verify/access/access_tracker.hh"
#include "verify/static/config_registry.hh"

namespace nord {
namespace {

NocConfig
trackedConfig(PgDesign design)
{
    NocConfig cfg = makeShippedConfig(design, 4, 4);
    cfg.verify.trackAccess = true;
    cfg.verify.interval = 250;  // include auditor sweep edges
    return cfg;
}

/** Uniform-random run with drain; returns the final state hash. */
std::uint64_t
runWithDrain(NocSystem &sys, Cycle cycles)
{
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05,
                             sys.config().seed);
    sys.setWorkload(&traffic);
    sys.run(cycles);
    sys.setWorkload(nullptr);
    EXPECT_TRUE(sys.runToCompletion(cycles * 4));
    return sys.stateHash();
}

TEST(AccessTracker, CleanContractsAllDesigns)
{
    for (PgDesign design :
         {PgDesign::kNoPg, PgDesign::kConvPg, PgDesign::kConvPgOpt,
          PgDesign::kNord}) {
        SCOPED_TRACE(pgDesignName(design));
        NocSystem sys(trackedConfig(design));
        runWithDrain(sys, 4000);

        const AccessTracker *t = sys.accessTracker();
        ASSERT_NE(t, nullptr);
        EXPECT_GT(t->totalAccesses(), 0u);
        EXPECT_FALSE(t->components().empty());
        EXPECT_FALSE(t->edges().empty());
        for (const AccessTracker::Violation &v : t->verify())
            ADD_FAILURE() << v.what;
        for (const std::string &r : t->undeclaredReads())
            ADD_FAILURE() << "advisory: " << r;
    }
}

TEST(AccessTracker, ObservesExpectedChannels)
{
    NocSystem sys(trackedConfig(PgDesign::kNord));
    runWithDrain(sys, 6000);
    const AccessTracker *t = sys.accessTracker();
    ASSERT_NE(t, nullptr);

    // Local injection: each NI writes its router's injection port.
    EXPECT_GT(t->edgeCount("ni0", "router0", ChannelKind::kLocalInject),
              0u);
    // Ejection: the router hands delivered flits to its NI.
    EXPECT_GT(t->edgeCount("router0", "ni0", ChannelKind::kEjection), 0u);
    // Power gating: the controller drives its router's power state.
    EXPECT_GT(t->edgeCount("pg0", "router0", ChannelKind::kPowerSignal),
              0u);
    // Closed-loop traffic flows through the workload ticker.
    EXPECT_GT(t->edgeCount("workload", "ni0", ChannelKind::kInjection),
              0u);

    // Every kind that showed up is on a declared (or wildcard) channel.
    bool sawFlitDeliver = false;
    for (const AccessTracker::Edge &e : t->edges()) {
        if (e.kind == ChannelKind::kFlitDeliver)
            sawFlitDeliver = true;
        if (e.mode == AccessMode::kWrite) {
            EXPECT_TRUE(e.declared)
                << channelKindName(e.kind) << " edge undeclared";
        }
    }
    EXPECT_TRUE(sawFlitDeliver);
}

TEST(AccessTracker, RogueWriteIsFlagged)
{
    NocSystem sys(trackedConfig(PgDesign::kNord));
    AccessTracker *t = sys.accessTracker();
    ASSERT_NE(t, nullptr);
    runWithDrain(sys, 1000);
    ASSERT_TRUE(t->verify().empty());

    // Simulate router0 scribbling on ni1's ejection queue -- no such
    // channel is declared (router0 may only eject into its own ni0), so
    // under per-shard execution this would be a data race.
    t->beginTick(&sys.router(0), sys.now());
    access::onWrite(&sys.ni(1), ChannelKind::kEjection);
    t->endTick();

    const std::vector<AccessTracker::Violation> vs = t->verify();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].type, AccessTracker::Violation::Type::kUndeclaredWrite);
    EXPECT_NE(vs[0].what.find("router0"), std::string::npos);
    EXPECT_NE(vs[0].what.find("ni1"), std::string::npos);
}

TEST(AccessTracker, OrderViolationIsFlagged)
{
    NocSystem sys(trackedConfig(PgDesign::kNord));
    AccessTracker *t = sys.accessTracker();
    ASSERT_NE(t, nullptr);

    // ni0 -> pg0 kWakeup is declared same-cycle visible: the write must
    // originate from a kernel slot no later than pg0's. Forge a tick
    // rooted at pg15 (a strictly later slot) with the access handed off
    // to ni0 -- the root-order audit must object.
    t->beginTick(&sys.controller(15), 1);
    {
        access::Handoff handoff(&sys.ni(0));
        access::onWrite(&sys.controller(0), ChannelKind::kWakeup);
    }
    t->endTick();

    const std::vector<AccessTracker::Violation> vs = t->verify();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].type, AccessTracker::Violation::Type::kOrderViolation);
    EXPECT_NE(vs[0].what.find("wakeup"), std::string::npos);
}

TEST(AccessTracker, TrackingIsObservationalOnly)
{
    NocConfig tracked = trackedConfig(PgDesign::kNord);
    NocConfig plain = tracked;
    plain.verify.trackAccess = false;

    NocSystem sysTracked(tracked);
    NocSystem sysPlain(plain);
    EXPECT_EQ(sysTracked.configFingerprint(), sysPlain.configFingerprint())
        << "trackAccess must not change checkpoint compatibility";

    const std::uint64_t hashTracked = runWithDrain(sysTracked, 4000);
    const std::uint64_t hashPlain = runWithDrain(sysPlain, 4000);
    EXPECT_EQ(hashTracked, hashPlain)
        << "access tracking perturbed the simulation";
    EXPECT_EQ(sysTracked.stats().packetsDelivered(),
              sysPlain.stats().packetsDelivered());
}

TEST(AccessTracker, DumpFormats)
{
    NocSystem sys(trackedConfig(PgDesign::kConvPg));
    runWithDrain(sys, 2000);
    const AccessTracker *t = sys.accessTracker();
    ASSERT_NE(t, nullptr);

    const std::string dot = t->dot();
    EXPECT_NE(dot.find("digraph nord_access"), std::string::npos);
    EXPECT_NE(dot.find("router0"), std::string::npos);

    const std::string json = t->json();
    EXPECT_NE(json.find("\"components\""), std::string::npos);
    EXPECT_NE(json.find("\"edges\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\""), std::string::npos);
    EXPECT_NE(json.find("\"flit_push\""), std::string::npos);
}

TEST(AccessTracker, JsonEscapesControlCharacters)
{
    // Names reach the JSON export verbatim: a tab or newline in one must
    // come out escaped, or the export is not valid JSON.
    class OddlyNamed : public Clocked
    {
      public:
        void tick(Cycle) override {}
        std::string name() const override { return "odd\tname\n"; }
    };
    OddlyNamed c;
    AccessTracker t;
    t.registerComponent(&c);
    const std::string json = t.json();
    EXPECT_NE(json.find("\"odd\\tname\\n\""), std::string::npos) << json;
    EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

TEST(AccessTracker, DisabledByDefault)
{
    NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
    NocSystem sys(cfg);
    EXPECT_EQ(sys.accessTracker(), nullptr);
}

}  // namespace
}  // namespace nord
