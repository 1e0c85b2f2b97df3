#ifndef RM_COMMON_TABLE_HH
#define RM_COMMON_TABLE_HH

/**
 * @file
 * Aligned text-table and CSV rendering used by the benchmark harness to
 * print the rows/series each paper table and figure reports.
 */

#include <iosfwd>
#include <string>
#include <vector>

namespace rm {

/** Format @p fraction (0.13 -> "13.0%"). */
std::string percent(double fraction, int decimals = 1);

/** Format a double with fixed decimals. */
std::string fixed(double value, int decimals = 2);

/**
 * Column-aligned text table. Columns are declared up front; every row
 * must supply one cell per column. Numeric helpers convert on entry.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> column_headers);

    /** Append a fully rendered row (size must match the header). */
    void addRow(std::vector<std::string> cells);

    /** Cell accessor (for tests). */
    const std::string &cell(std::size_t row, std::size_t col) const;

    /** Render as an aligned text table with a header separator. */
    std::string toText() const;

    /** Render as CSV (no quoting of commas; cells must not contain any). */
    std::string toCsv() const;

    /** Stream toText() to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Incremental row builder so call sites can mix strings and numbers:
 *   table.addRow(Row() << name << percent(x) << cycles);
 */
class Row
{
  public:
    Row &operator<<(const std::string &cell);
    Row &operator<<(const char *cell);
    Row &operator<<(long long value);
    Row &operator<<(unsigned long long value);
    Row &operator<<(int value);
    Row &operator<<(unsigned value);
    Row &operator<<(std::size_t value);
    Row &operator<<(double value);

    std::vector<std::string> take() { return std::move(cells); }

  private:
    std::vector<std::string> cells;
};

} // namespace rm

#endif // RM_COMMON_TABLE_HH
