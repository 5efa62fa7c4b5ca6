#include "src/common/table.h"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <sstream>

namespace trenv {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::Pct(double fraction, int precision) {
  return Num(fraction * 100.0, precision) + "%";
}

std::string Table::Ms(double ms, int precision) { return Num(ms, precision) + " ms"; }

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t i = 0; i < row.size(); ++i) {
      os << " " << std::setw(static_cast<int>(widths[i])) << std::left << row[i] << " |";
    }
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (size_t w : widths) {
      os << std::string(w + 2, '-') << "+";
    }
    os << "\n";
  };
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_sep();
}

std::string Table::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

void PrintBanner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace trenv
