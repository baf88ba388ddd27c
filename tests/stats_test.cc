/** @file Tests for the stats/reporting substrate (tables, timelines). */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/table.hh"
#include "stats/timeline.hh"
#include "support/logging.hh"

using namespace capu;

namespace
{

/** Tracer preloaded with Complete events on one track. */
obs::Tracer
makeTracer(std::uint32_t track,
           const std::vector<std::pair<Tick, Tick>> &intervals)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    for (const auto &[start, end] : intervals)
        tracer.complete(track, obs::EventKind::Kernel, start, end - start,
                        "iv");
    return tracer;
}

} // namespace

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CellAccess)
{
    Table t({"a", "b"});
    t.addRow({"x", "y"});
    EXPECT_EQ(t.cell(0, 1), "y");
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_THROW(t.cell(1, 0), PanicError);
}

TEST(Table, RowArityChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Table, EmptyHeaderIsFatal)
{
    EXPECT_THROW(Table t({}), FatalError);
}

TEST(Table, CsvEscapesCommas)
{
    Table t({"a", "b"});
    t.addRow({"x,y", "say \"hi\", then go"});
    std::ostringstream os;
    t.printCsv(os);
    // RFC 4180: a cell with a comma or quote is quoted, its quotes doubled.
    EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"say \"\"hi\"\", then go\"\n");
}

TEST(Table, CellFormatters)
{
    EXPECT_EQ(cellInt(42), "42");
    EXPECT_EQ(cellDouble(1.23456, 2), "1.23");
    EXPECT_EQ(cellPercent(0.417, 1), "41.7%");
}

TEST(Timeline, RendersBusyCells)
{
    auto tracer = makeTracer(obs::kTrackCompute, {{0, 50}, {75, 100}});
    std::ostringstream os;
    renderTimeline(os, tracer, {{"comp", obs::kTrackCompute}}, 0, 100, 20);
    std::string out = os.str();
    // First half busy, gap, then busy tail.
    EXPECT_NE(out.find("##########"), std::string::npos);
    EXPECT_NE(out.find("."), std::string::npos);
}

TEST(Timeline, WindowClipping)
{
    auto tracer = makeTracer(obs::kTrackCompute, {{0, 1000}});
    std::ostringstream os;
    renderTimeline(os, tracer, {{"x", obs::kTrackCompute}}, 500, 600, 10);
    // Entirely busy within the window.
    EXPECT_NE(os.str().find("##########"), std::string::npos);
}

TEST(Timeline, IgnoresOtherTracks)
{
    auto tracer = makeTracer(obs::kTrackD2H, {{0, 100}});
    std::ostringstream os;
    renderTimeline(os, tracer, {{"comp", obs::kTrackCompute}}, 0, 100, 10);
    // No compute events: the row is entirely idle.
    EXPECT_EQ(os.str().find('#'), std::string::npos);
}

TEST(Timeline, UtilizationMath)
{
    auto tracer = makeTracer(obs::kTrackCompute, {{0, 25}, {50, 75}});
    EXPECT_DOUBLE_EQ(trackUtilization(tracer, obs::kTrackCompute, 0, 100),
                     0.5);
    EXPECT_DOUBLE_EQ(trackUtilization(tracer, obs::kTrackCompute, 0, 50),
                     0.5);
    EXPECT_DOUBLE_EQ(trackUtilization(tracer, obs::kTrackCompute, 80, 100),
                     0.0);
    EXPECT_DOUBLE_EQ(trackUtilization(tracer, obs::kTrackCompute, 100, 100),
                     0.0);
    EXPECT_DOUBLE_EQ(trackUtilization(tracer, obs::kTrackD2H, 0, 100), 0.0);
}
