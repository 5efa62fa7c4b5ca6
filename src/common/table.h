// Plain-text table renderer used by the benchmark harnesses to print the
// paper's tables and figure series in a uniform, diff-friendly format.
#ifndef TRENV_COMMON_TABLE_H_
#define TRENV_COMMON_TABLE_H_

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace trenv {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  // Formatting helpers for cells.
  static std::string Num(double v, int precision = 2);
  static std::string Pct(double fraction, int precision = 1);
  static std::string Ms(double ms, int precision = 1);

  void Print(std::ostream& os) const;
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Section banner for bench output, e.g. "=== Figure 17 (W1) ===".
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace trenv

#endif  // TRENV_COMMON_TABLE_H_
