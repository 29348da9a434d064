/**
 * @file
 * Tests of the benchmark's own machinery: the tail percentile rule,
 * ladder bisection, due-time latency accounting, the metric-name
 * grammar, and digest determinism on a tiny configuration.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "lib/digest.hh"
#include "lib/openloop.hh"
#include "lib/report.hh"
#include "lib/stats.hh"
#include "service/json.hh"
#include "workloads.hh"

using namespace perfbench;

// --- the percentile rule -------------------------------------------

TEST(PercentileRule, HighestPercentileWithTenBeyond)
{
    EXPECT_FALSE(tailPercentile(0).has_value());
    EXPECT_FALSE(tailPercentile(19).has_value());
    EXPECT_EQ(*tailPercentile(20), 50.0);  // 10 beyond the median
    EXPECT_EQ(*tailPercentile(99), 50.0);  // p90 would have 9.9
    EXPECT_EQ(*tailPercentile(100), 90.0);
    EXPECT_EQ(*tailPercentile(999), 90.0); // p99 would have 9.99
    EXPECT_EQ(*tailPercentile(1000), 99.0);
    EXPECT_EQ(*tailPercentile(9999), 99.0);
    EXPECT_EQ(*tailPercentile(10000), 99.9);
}

TEST(PercentileRule, SummaryNamesPercentileAndCount)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Summary s = summarize(v);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.tailPct, 99.0);
    EXPECT_NEAR(s.p50, 500.5, 1e-9);
    EXPECT_NEAR(s.tail, s.p99, 1e-12);
    EXPECT_NEAR(s.p99, 990.01, 1e-9);
    // Ten values lie above the reported p99.
    int beyond = 0;
    for (double x : v)
        beyond += x > s.tail;
    EXPECT_EQ(beyond, 10);

    Summary few = summarize({1.0, 2.0, 3.0});
    EXPECT_EQ(few.samples, 3u);
    EXPECT_EQ(few.tailPct, 0.0); // no percentile qualifies
}

TEST(PercentileRule, QuantileInterpolates)
{
    EXPECT_EQ(quantile({}, 0.5), 0.0);
    EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
    EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(PercentileRule, PieceTimesSummarizeEachPiece)
{
    PieceTimes t;
    EXPECT_TRUE(t.quantile(0.5).empty());
    EXPECT_TRUE(t.add({3.0, 1.0, 2.0}));
    EXPECT_TRUE(t.add({1.0, 9.0, 2.0}));
    EXPECT_TRUE(t.add({2.0, 2.0, 0.5}));
    EXPECT_EQ(t.quantile(0.5), (std::vector<double>{2.0, 2.0, 2.0}));
    EXPECT_EQ(t.quantile(0.0), (std::vector<double>{1.0, 1.0, 0.5}));
    EXPECT_DOUBLE_EQ(sum(t.quantile(0.0)), 2.5);
    EXPECT_EQ(t.repetitions(), 3u);
    // A repetition of other work is refused and changes nothing.
    EXPECT_FALSE(t.add({0.1, 0.1}));
    EXPECT_EQ(t.quantile(0.5), (std::vector<double>{2.0, 2.0, 2.0}));
    EXPECT_EQ(t.repetitions(), 3u);
}

TEST(PercentileRule, PieceTimesKeepTheLastRepetitions)
{
    PieceTimes t;
    EXPECT_TRUE(t.add({100.0}));
    for (std::size_t r = 0; r < PieceTimes::kCapacity; ++r)
        EXPECT_TRUE(t.add({r % 2 ? 3.0 : 1.0}));
    // The first repetition has been overwritten: median of 1s and 3s.
    EXPECT_EQ(t.quantile(0.5), (std::vector<double>{2.0}));
    EXPECT_EQ(t.quantile(1.0), (std::vector<double>{3.0}));
    EXPECT_EQ(t.repetitions(), PieceTimes::kCapacity + 1);
}

// --- ladder bisection ----------------------------------------------

TEST(Ladder, RungsAreGeometricAndAtMostTenPercentApart)
{
    Ladder l{1000.0, 1.07, 60};
    EXPECT_DOUBLE_EQ(l.rate(0), 1000.0);
    for (std::size_t i = 1; i < l.rungs; ++i)
        EXPECT_NEAR(l.rate(i) / l.rate(i - 1), 1.07, 1e-12);
    EXPECT_THROW((Ladder{1000.0, 1.2, 5}.rate(1)), std::invalid_argument);
}

TEST(Ladder, BisectionFindsHighestPassingRung)
{
    for (std::size_t rungs : {1u, 2u, 7u, 60u}) {
        for (std::size_t limit = 0; limit <= rungs; ++limit) {
            // Rungs below `limit` pass.
            int calls = 0;
            auto best = bisectLadder(rungs, [&](std::size_t i) {
                ++calls;
                return i < limit;
            });
            if (limit == 0)
                EXPECT_FALSE(best.has_value());
            else
                EXPECT_EQ(*best, limit - 1);
            EXPECT_LE(calls,
                      static_cast<int>(std::ceil(std::log2(rungs + 1.0))));
        }
    }
}

// --- due-time latency accounting -----------------------------------

TEST(OpenLoop, LatencyCountsFromDueTime)
{
    // 1000 req/s: request i is due at i ms.
    LatencyBook book(4, 1000.0);
    EXPECT_DOUBLE_EQ(book.due(3), 0.003);
    // The generator stalls 5 ms before sending request 0; everything
    // behind it goes out late too.
    book.markSent(0, 0.005);
    book.markSent(1, 0.005);
    book.markSent(2, 0.005);
    book.markSent(3, 0.005);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(book.markDone(i, 0.0055));
    std::vector<double> lat = book.latencyMs();
    // 5.5, 4.5, 3.5, 2.5 ms: the stall is charged to each request it
    // delayed, not hidden as 0.5 ms of service time.
    ASSERT_EQ(lat.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(lat[i], 5.5 - static_cast<double>(i), 1e-9);
    std::vector<double> lag = book.lagMs();
    EXPECT_NEAR(lag[0], 5.0, 1e-9);
    EXPECT_NEAR(lag[3], 2.0, 1e-9);
    EXPECT_NEAR(book.finishBehindMs(), 2.5, 1e-9);
    EXPECT_TRUE(book.exactlyOnce());
}

TEST(OpenLoop, ExactlyOnceDetectsDuplicatesAndMissing)
{
    LatencyBook book(3, 100.0);
    for (std::size_t i = 0; i < 3; ++i)
        book.markSent(i, book.due(i));
    EXPECT_TRUE(book.markDone(0, 0.1));
    EXPECT_FALSE(book.markDone(0, 0.2)); // duplicate
    EXPECT_FALSE(book.markDone(7, 0.2)); // never sent
    EXPECT_TRUE(book.markDone(1, 0.2));
    EXPECT_EQ(book.answered(), 2u);
    EXPECT_FALSE(book.exactlyOnce()); // 2 is missing, anomalies seen

    LatencyBook clean(2, 100.0);
    clean.markSent(0, 0.0);
    clean.markSent(1, 0.01);
    EXPECT_FALSE(clean.exactlyOnce());
    clean.markDone(1, 0.02);
    clean.markDone(0, 0.03); // out of order is fine
    EXPECT_TRUE(clean.exactlyOnce());
}

TEST(OpenLoop, WindowsSeparateTransientStallFromBacklog)
{
    // 100 requests at 1000/s in 10 windows of 10 requests each.
    LatencyBook stall(100, 1000.0);
    LatencyBook backlog(100, 1000.0);
    for (std::size_t i = 0; i < 100; ++i) {
        double due = stall.due(i);
        // One 5 ms stall at 30 ms delays the requests due before its
        // end; otherwise 0.2 ms service.
        double sent = (due >= 0.030 && due < 0.035) ? 0.035 : due;
        stall.markSent(i, sent);
        stall.markDone(i, sent + 0.0002);
        // A server 10% too slow: every answer later than the last.
        backlog.markSent(i, due);
        backlog.markDone(i, 0.0011 * static_cast<double>(i + 1));
    }
    auto slow = [](const std::vector<LatencyBook::Window> &ws) {
        std::size_t n = 0;
        for (const auto &w : ws)
            n += w.latencyP99Ms > 2.0;
        return n;
    };
    std::vector<LatencyBook::Window> ws = stall.windows(10);
    ASSERT_EQ(ws.size(), 10u);
    for (const auto &w : ws)
        EXPECT_EQ(w.answered, 10u);
    EXPECT_EQ(slow(ws), 1u);            // only the stalled window
    EXPECT_NEAR(ws[3].lagP99Ms, 5.0, 0.1);
    EXPECT_GE(slow(backlog.windows(10)), 8u); // nearly every window
}

// --- metric-name grammar -------------------------------------------

TEST(Report, NameGrammar)
{
    EXPECT_TRUE(validName("setup_s"));
    EXPECT_TRUE(validName("service.apply_us.region_snapshot"));
    EXPECT_TRUE(validName("99th-pct"));
    EXPECT_TRUE(validName(std::string(64, 'a')));
    EXPECT_FALSE(validName(std::string(65, 'a')));
    EXPECT_FALSE(validName(""));
    EXPECT_FALSE(validName("_leading"));
    EXPECT_FALSE(validName(".leading"));
    EXPECT_FALSE(validName("has space"));
    EXPECT_FALSE(validName("slash/y"));

    EXPECT_TRUE(validUnit("ms"));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_TRUE(validUnit("Mcycles/s"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("\xc3\x97")); // the multiplication sign
    EXPECT_FALSE(validUnit(std::string(17, 's')));
}

TEST(Report, ResultLineIsTheContractObject)
{
    Tally t;
    t.ok(3);
    t.fail("one went wrong");
    Metrics m;
    m.set("latency_ms", 1.2034, "ms");
    m.set("setup_s", 0.8127, "s");
    m.set("latency_ms", 1.5, "ms"); // replaces, keeps order
    std::string line = resultLine(false, t, m);
    auto v = cash::service::parseJson(line);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->members().size(), 4u);
    EXPECT_FALSE(*v->getBool("correct"));
    EXPECT_EQ(*v->getUint("attempted"), 4u);
    EXPECT_EQ(*v->getUint("failed"), 1u);
    const cash::service::JsonValue *metrics = v->find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->members().size(), 2u);
    EXPECT_EQ(metrics->members()[0].first, "latency_ms");
    EXPECT_EQ(*metrics->members()[0].second.getNumber("value"), 1.5);
    EXPECT_EQ(*metrics->members()[1].second.getString("unit"), "s");

    Metrics bad;
    bad.set("bad name", 1.0, "s");
    EXPECT_THROW(resultLine(true, t, bad), std::invalid_argument);
    Metrics nan;
    nan.set("x", std::nan(""), "s");
    EXPECT_THROW(resultLine(true, t, nan), std::invalid_argument);
}

TEST(Report, NumbersKeepAllTheirDigits)
{
    EXPECT_EQ(formatNumber(0.1), "0.1");
    EXPECT_EQ(formatNumber(1.0 / 3.0), "0.3333333333333333");
    EXPECT_EQ(std::stod(formatNumber(5.657791867000014)),
              5.657791867000014);
}

// --- digest determinism --------------------------------------------

TEST(Digest, BitExactAndOrderSensitive)
{
    Digest a, b, c;
    a.add(1.0);
    a.add(std::uint64_t{2});
    b.add(1.0);
    b.add(std::uint64_t{2});
    c.add(std::uint64_t{2});
    c.add(1.0);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_NE(a.hex(), c.hex());
    Digest d;
    d.add(std::nextafter(1.0, 2.0));
    d.add(std::uint64_t{2});
    EXPECT_NE(a.hex(), d.hex());
}

TEST(Digest, Fig7ProbeIdenticalAcrossThreadCounts)
{
    RunConfig cfg;
    cfg.seed = 3;
    cfg.probe = true;
    cfg.threads = 1;
    Outcome one = runFig7(cfg);
    cfg.threads = 3;
    Outcome three = runFig7(cfg);
    EXPECT_EQ(one.tally.failed, 0u);
    EXPECT_EQ(three.tally.failed, 0u);
    EXPECT_EQ(one.digest, three.digest);
    cfg.seed = 4;
    EXPECT_NE(runFig7(cfg).digest, one.digest); // the seed matters
}

TEST(Digest, FleetProbeRepeats)
{
    RunConfig cfg;
    cfg.seed = 5;
    cfg.probe = true;
    Outcome a = runFleet(cfg);
    Outcome b = runFleet(cfg);
    EXPECT_EQ(a.tally.failed, 0u);
    EXPECT_EQ(a.digest, b.digest);
}

TEST(Digest, ServeProbeReplaysIdentically)
{
    RunConfig cfg;
    cfg.seed = 6;
    cfg.probe = true;
    Outcome a = runServe(cfg);
    Outcome b = runServe(cfg);
    EXPECT_EQ(a.tally.failed, 0u);
    EXPECT_GT(a.tally.attempted, 2000u); // every request, drain, audits
    EXPECT_FALSE(a.digest.empty());
    EXPECT_EQ(a.digest, b.digest);
    cfg.seed = 7;
    EXPECT_NE(runServe(cfg).digest, a.digest); // the seed matters
}
