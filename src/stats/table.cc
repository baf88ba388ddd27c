#include "stats/table.hh"

#include <algorithm>
#include <cstdio>

#include "support/logging.hh"

namespace capu
{

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("row has {} cells, table has {} columns", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "");
            os << row[c];
            for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad)
                os << ' ';
        }
        os << '\n';
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    // RFC 4180: a cell holding a comma, quote or line break is quoted,
    // and each quote inside it doubled.
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ',';
            const std::string &cell = row[c];
            if (cell.find_first_of(",\"\r\n") == std::string::npos) {
                os << cell;
                continue;
            }
            os << '"';
            for (char ch : cell) {
                if (ch == '"')
                    os << '"';
                os << ch;
            }
            os << '"';
        }
        os << '\n';
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
}

const std::string &
Table::cell(std::size_t row, std::size_t col) const
{
    if (row >= rows_.size() || col >= headers_.size())
        panic("table cell ({}, {}) out of range", row, col);
    return rows_[row][col];
}

std::string
cellInt(std::int64_t v)
{
    return std::to_string(v);
}

std::string
cellDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
cellPercent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

} // namespace capu
