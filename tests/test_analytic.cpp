// Tests for the analytic models (roofline + composition).
#include <gtest/gtest.h>

#include "analytic/composition.hh"
#include "analytic/roofline.hh"

namespace accesys::analytic {
namespace {

TEST(Roofline, TransferFloor)
{
    RooflineParams p;
    p.bytes_per_tile = 16384;
    p.bandwidth_gbps = 8.0;
    EXPECT_DOUBLE_EQ(transfer_ns_per_tile(p), 2048.0);
    EXPECT_DOUBLE_EQ(knee_compute_ns(p), 2048.0);
}

TEST(Roofline, PlateauBelowKneeLinearAbove)
{
    RooflineParams p;
    p.bytes_per_tile = 8000;
    p.bandwidth_gbps = 8.0; // floor = 1000 ns
    EXPECT_DOUBLE_EQ(tile_time_ns(p, 100), 1000.0);
    EXPECT_DOUBLE_EQ(tile_time_ns(p, 999), 1000.0);
    EXPECT_DOUBLE_EQ(tile_time_ns(p, 2000), 2000.0);
    EXPECT_DOUBLE_EQ(tile_time_ns(p, 4000), 4000.0);
}

TEST(Roofline, FixedOverheadAdds)
{
    RooflineParams p;
    p.bytes_per_tile = 800;
    p.bandwidth_gbps = 8.0;
    p.fixed_overhead_ns = 50.0;
    EXPECT_DOUBLE_EQ(tile_time_ns(p, 10), 150.0);
}

TEST(Roofline, SeriesMatchesPointEvaluation)
{
    RooflineParams p;
    p.bytes_per_tile = 1600;
    p.bandwidth_gbps = 16.0;
    const auto series = roofline_series(p, {10, 100, 1000});
    ASSERT_EQ(series.size(), 3u);
    for (const auto& pt : series) {
        EXPECT_DOUBLE_EQ(pt.predicted_tile_ns, tile_time_ns(p, pt.compute_ns));
    }
}

TEST(Roofline, Validation)
{
    RooflineParams p;
    p.bytes_per_tile = 0;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Composition, PureGemmAndPureNonGemm)
{
    SystemPerf sys{0.5, 2.0, 0.25};
    EXPECT_DOUBLE_EQ(exec_time(sys, 0.0), 0.5 + 1.0 / 2.0);
    EXPECT_DOUBLE_EQ(exec_time(sys, 1.0), 0.5 + 1.0 / 0.25);
}

TEST(Composition, LinearInFraction)
{
    SystemPerf sys{0.0, 1.0, 0.5};
    const double t0 = exec_time(sys, 0.2);
    const double t1 = exec_time(sys, 0.4);
    const double t2 = exec_time(sys, 0.6);
    EXPECT_NEAR(t1 - t0, t2 - t1, 1e-12);
}

TEST(Composition, OutOfRangeFractionThrows)
{
    SystemPerf sys{0, 1, 1};
    EXPECT_THROW((void)exec_time(sys, -0.1), ConfigError);
    EXPECT_THROW((void)exec_time(sys, 1.1), ConfigError);
    SystemPerf bad{0, 0, 1};
    EXPECT_THROW((void)exec_time(bad, 0.5), ConfigError);
}

TEST(Composition, CrossoverClosedFormMatchesScan)
{
    // DevMem-like: fast GEMM, slow Non-GEMM. PCIe-like: the reverse.
    SystemPerf devmem{0.0, 4.0, 0.5};
    SystemPerf pcie{0.0, 1.0, 2.0};
    const auto w = crossover_nongemm_frac(devmem, pcie);
    ASSERT_TRUE(w.has_value());
    // Verify by bisection-style scan.
    double scan = -1;
    for (double x = 0.0005; x < 1.0; x += 0.001) {
        const double d = exec_time(devmem, x) - exec_time(pcie, x);
        if (d >= 0) {
            scan = x;
            break;
        }
    }
    ASSERT_GT(scan, 0);
    EXPECT_NEAR(*w, scan, 0.002);
    // Below the crossover DevMem wins, above it PCIe wins.
    EXPECT_LT(exec_time(devmem, *w - 0.05), exec_time(pcie, *w - 0.05));
    EXPECT_GT(exec_time(devmem, *w + 0.05), exec_time(pcie, *w + 0.05));
}

TEST(Composition, NoCrossoverWhenDominated)
{
    SystemPerf fast{0.0, 2.0, 2.0};
    SystemPerf slow{0.0, 1.0, 1.0};
    EXPECT_FALSE(crossover_nongemm_frac(fast, slow).has_value());
}

TEST(Composition, ParallelLinesNoUniqueCrossover)
{
    SystemPerf a{0.0, 1.0, 0.5};
    SystemPerf b{0.1, 1.0, 0.5};
    EXPECT_FALSE(crossover_nongemm_frac(a, b).has_value());
}

TEST(Composition, GemmThresholdConversion)
{
    EXPECT_DOUBLE_EQ(as_gemm_threshold(0.3), 0.7);
}

// Property: the paper's monotonicity claim — as the PCIe system's GEMM
// throughput grows, the Non-GEMM fraction below which DevMem wins shrinks.
class CrossoverMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(CrossoverMonotonic, FasterPcieShrinksDevMemRegion)
{
    SystemPerf devmem{0.0, 4.0, 0.25};
    SystemPerf pcie_slow{0.0, GetParam(), 1.0};
    SystemPerf pcie_fast{0.0, GetParam() * 2.0, 1.0};
    const auto w_slow = crossover_nongemm_frac(devmem, pcie_slow);
    const auto w_fast = crossover_nongemm_frac(devmem, pcie_fast);
    ASSERT_TRUE(w_slow.has_value());
    ASSERT_TRUE(w_fast.has_value());
    EXPECT_LT(*w_fast, *w_slow);
}

INSTANTIATE_TEST_SUITE_P(Rates, CrossoverMonotonic,
                         ::testing::Values(0.5, 1.0, 1.5));

} // namespace
} // namespace accesys::analytic
