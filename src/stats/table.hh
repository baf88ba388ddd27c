/**
 * @file
 * Aligned-column table rendering for benchmark output.
 *
 * Every bench binary reports through Table so that table/figure
 * reproductions print uniformly (and can additionally be dumped as CSV for
 * plotting).
 */

#ifndef CAPU_STATS_TABLE_HH
#define CAPU_STATS_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace capu
{

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header rule. */
    void print(std::ostream &os) const;

    /** Render as CSV (no alignment; cells quoted per RFC 4180). */
    void printCsv(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

    /** Cell accessor (row-major), for tests. */
    const std::string &cell(std::size_t row, std::size_t col) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers for common cell types. */
std::string cellInt(std::int64_t v);
std::string cellDouble(double v, int precision = 2);
std::string cellPercent(double fraction, int precision = 1);

} // namespace capu

#endif // CAPU_STATS_TABLE_HH
