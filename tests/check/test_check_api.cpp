/**
 * @file
 * The cooprt::check API itself: violation formatting, handler
 * routing, the RAII collector and the one-shot mutation harness.
 * Everything here works in both default and COOPRT_CHECK builds —
 * the API is always compiled; only the audit *call sites* in the
 * model are conditional.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/check.hpp"

namespace {

using namespace cooprt;

TEST(CheckApi, ViolationMessageCarriesAllFields)
{
    check::Violation v;
    v.component = "rtunit.sm3";
    v.invariant = "rtunit.warp_conservation";
    v.cycle = 1234;
    v.detail = "submitted=5 retired=3 resident=1";
    const std::string msg = v.message();
    EXPECT_NE(msg.find("rtunit.sm3"), std::string::npos);
    EXPECT_NE(msg.find("rtunit.warp_conservation"), std::string::npos);
    EXPECT_NE(msg.find("1234"), std::string::npos);
    EXPECT_NE(msg.find("submitted=5"), std::string::npos);
}

TEST(CheckApi, DefaultHandlerThrowsViolationError)
{
    const std::uint64_t before = check::violationCount();
    try {
        check::fail("mem.l2", "mem.cache_access_conservation", 77,
                    "accesses=1 hits=2");
        FAIL() << "fail() must throw without a handler";
    } catch (const check::ViolationError &e) {
        EXPECT_EQ(e.violation().component, "mem.l2");
        EXPECT_EQ(e.violation().invariant,
                  "mem.cache_access_conservation");
        EXPECT_EQ(e.violation().cycle, 77u);
    }
    EXPECT_EQ(check::violationCount(), before + 1);
}

TEST(CheckApi, CollectorGathersWithoutUnwinding)
{
    const std::uint64_t before = check::violationCount();
    {
        check::Collector collector;
        check::fail("a", "inv.one", 1, "x");
        check::fail("b", "inv.two", 2, "y");
        ASSERT_EQ(collector.items().size(), 2u);
        EXPECT_EQ(collector.items()[0].invariant, "inv.one");
        EXPECT_EQ(collector.items()[1].cycle, 2u);
        EXPECT_FALSE(collector.empty());
    }
    // Destroying the collector restores the throwing default.
    EXPECT_THROW(check::fail("c", "inv.three", 3, "z"),
                 check::ViolationError);
    EXPECT_EQ(check::violationCount(), before + 3);
}

TEST(CheckApi, CustomHandlerReceivesViolations)
{
    int calls = 0;
    check::setHandler([&](const check::Violation &v) {
        calls++;
        EXPECT_EQ(v.invariant, "inv.custom");
    });
    check::fail("comp", "inv.custom", 9, "d");
    check::setHandler(nullptr);
    EXPECT_EQ(calls, 1);
}

TEST(CheckApi, MutationsFireExactlyOnce)
{
    ASSERT_EQ(check::armedMutation(), check::Mutation::None);
    check::armMutation(check::Mutation::DropResponse);
    EXPECT_TRUE(check::mutationArmed(check::Mutation::DropResponse));
    EXPECT_FALSE(
        check::mutationArmed(check::Mutation::LeakWarpSlot));
    // A different site does not consume it...
    EXPECT_FALSE(
        check::mutationFires(check::Mutation::LeakWarpSlot));
    // ...the matching site consumes it exactly once.
    const std::uint64_t fired = check::mutationsFired();
    EXPECT_TRUE(check::mutationFires(check::Mutation::DropResponse));
    EXPECT_FALSE(check::mutationFires(check::Mutation::DropResponse));
    EXPECT_EQ(check::armedMutation(), check::Mutation::None);
    EXPECT_EQ(check::mutationsFired(), fired + 1);
}

TEST(CheckApi, DisarmCancelsWithoutFiring)
{
    const std::uint64_t fired = check::mutationsFired();
    check::armMutation(check::Mutation::StackOverPush);
    check::disarmMutation();
    EXPECT_FALSE(check::mutationFires(check::Mutation::StackOverPush));
    EXPECT_EQ(check::mutationsFired(), fired);
}

TEST(CheckApi, MutationCatalogueIsCompleteAndNamed)
{
    const auto &all = check::allMutations();
    EXPECT_EQ(all.size(), 13u);
    std::set<std::string> names;
    for (const check::Mutation m : all) {
        ASSERT_NE(m, check::Mutation::None);
        const std::string name = check::mutationName(m);
        EXPECT_NE(name, "Unknown");
        EXPECT_NE(name, "None");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), all.size()) << "duplicate mutation names";
}

TEST(CheckApi, EnabledMatchesBuildConfiguration)
{
#if COOPRT_CHECK_ENABLED
    EXPECT_TRUE(check::enabled());
#else
    EXPECT_FALSE(check::enabled());
    // In default builds the macros are inert: no audit, no mutation.
    check::armMutation(check::Mutation::DropResponse);
    EXPECT_FALSE(COOPRT_MUTATE(DropResponse));
    EXPECT_TRUE(
        check::mutationArmed(check::Mutation::DropResponse))
        << "inert COOPRT_MUTATE must not consume the armed mutation";
    check::disarmMutation();
    COOPRT_AUDIT("comp", "inv", 0, false, "never evaluated");
#endif
}

} // namespace
