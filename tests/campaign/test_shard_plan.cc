/**
 * @file
 * Unit tier for the campaign partitioning primitive: the ShardPlan
 * must be a deterministic, complete, block-aligned partition of the
 * expanded slot space.
 */

#include <gtest/gtest.h>

#include <string>

#include "campaign/shard_plan.hh"
#include "reliability/reliability.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

#include "../support/fixtures.hh"

namespace nvmexp {
namespace {

class ShardPlanTest : public testsupport::QuietTest
{
  protected:
    /** smallSweep with two reliability specs: 8 arrays x 2 traffics x
     *  2 specs = 32 slots, spec blocks of length 2. */
    SweepConfig
    specSweep()
    {
        SweepConfig config = testsupport::smallSweep();
        reliability::ReliabilitySpec none;
        reliability::ReliabilitySpec secded;
        secded.ecc = "secded-72-64";
        config.reliability = {none, secded};
        return config;
    }
};

TEST_F(ShardPlanTest, PlanIsDeterministicAndMatchesStoreFingerprint)
{
    SweepConfig config = specSweep();
    campaign::ShardPlan a = campaign::makeShardPlan(config, 4);
    campaign::ShardPlan b = campaign::makeShardPlan(config, 4);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.runLength, b.runLength);
    EXPECT_EQ(a.rotation, b.rotation);
    EXPECT_EQ(a.shardCount, 4u);
    EXPECT_EQ(a.runLength, config.reliability.size());
    // The plan is defined over the same fingerprint the result store
    // journals, so shard journals and the merged journal agree.
    EXPECT_EQ(a.fingerprint, store::sweepFingerprint(config));
}

TEST_F(ShardPlanTest, EveryShardCountPartitionsTheSlotSpace)
{
    SweepConfig config = specSweep();
    const std::size_t totalSlots = 32;
    for (std::size_t shards : {1u, 2u, 3u, 5u, 8u, 33u}) {
        campaign::ShardPlan plan =
            campaign::makeShardPlan(config, shards);
        std::size_t covered = 0;
        for (std::size_t k = 0; k < shards; ++k) {
            std::size_t owned = plan.ownedCount(k, totalSlots);
            covered += owned;
            // The selector agrees with shardOf, slot by slot.
            auto selector = plan.selector(k);
            std::size_t selected = 0;
            for (std::size_t slot = 0; slot < totalSlots; ++slot) {
                EXPECT_LT(plan.shardOf(slot), shards);
                EXPECT_EQ(selector(slot), plan.owns(k, slot));
                if (selector(slot))
                    ++selected;
            }
            EXPECT_EQ(selected, owned) << shards << " shards, shard "
                                       << k;
        }
        EXPECT_EQ(covered, totalSlots) << shards << " shards";
    }
}

TEST_F(ShardPlanTest, SpecBlocksNeverStraddleShards)
{
    SweepConfig config = specSweep();
    for (std::size_t shards : {2u, 3u, 7u}) {
        campaign::ShardPlan plan =
            campaign::makeShardPlan(config, shards);
        ASSERT_EQ(plan.runLength, 2u);
        for (std::size_t slot = 0; slot + 1 < 32; slot += 2) {
            EXPECT_EQ(plan.shardOf(slot), plan.shardOf(slot + 1))
                << "block at slot " << slot << ", " << shards
                << " shards";
        }
    }
}

TEST_F(ShardPlanTest, RotationVariesWithSweepNotWithCall)
{
    // Different sweeps land on different rotations (fingerprint-
    // derived), so repeated campaigns don't always hand shard 0 the
    // same corner of the space.
    SweepConfig a = specSweep();
    SweepConfig b = specSweep();
    b.reliability[1].scrubIntervalSec = 3600.0;
    campaign::ShardPlan pa = campaign::makeShardPlan(a, 8);
    campaign::ShardPlan pb = campaign::makeShardPlan(b, 8);
    EXPECT_NE(pa.fingerprint, pb.fingerprint);
    EXPECT_LT(pa.rotation, 8u);
    EXPECT_LT(pb.rotation, 8u);
}

TEST_F(ShardPlanTest, ZeroShardsAndOutOfRangeSelectorAreFatal)
{
    SweepConfig config = specSweep();
    ScopedFatalThrows guard;
    EXPECT_THROW(campaign::makeShardPlan(config, 0), FatalError);
    EXPECT_THROW(campaign::makeShardPlan(config, campaign::kMaxShards + 1),
                 FatalError);
    campaign::ShardPlan plan = campaign::makeShardPlan(config, 2);
    EXPECT_THROW(plan.selector(2), FatalError);
}

} // namespace
} // namespace nvmexp
