// The terminal reporting layer: the paper-table renderers write their
// output to stdout by design (simcheck's stdio rule exempts this file).
#include "metrics/table.hpp"

#include <cstdio>

#include "sim/stats.hpp"

namespace ckesim {

void
ClassAggregate::add(WorkloadClass cls, double value)
{
    // Geomeans need positive values; clamp degenerate runs.
    const double v = value > 1e-9 ? value : 1e-9;
    by_class_[cls].push_back(v);
    all_.push_back(v);
}

double
ClassAggregate::geomean(WorkloadClass cls) const
{
    auto it = by_class_.find(cls);
    if (it == by_class_.end() || it->second.empty())
        return 0.0;
    return ckesim::geomean(it->second);
}

double
ClassAggregate::geomeanAll() const
{
    if (all_.empty())
        return 0.0;
    return ckesim::geomean(all_);
}

int
ClassAggregate::count(WorkloadClass cls) const
{
    auto it = by_class_.find(cls);
    return it == by_class_.end()
               ? 0
               : static_cast<int>(it->second.size());
}

const char *
classLabel(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::CC:
        return "C+C";
      case WorkloadClass::CM:
        return "C+M";
      case WorkloadClass::MM:
        return "M+M";
    }
    return "?";
}

std::string
fmt(double v, int width, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
    return buf;
}

void
printHeader(const std::string &title)
{
    std::printf("\n%s\n", title.c_str());
    for (std::size_t i = 0; i < title.size(); ++i)
        std::printf("-");
    std::printf("\n");
}

// ---- ClassTable --------------------------------------------------------

ClassTable::ClassTable(std::string title,
                       std::vector<std::string> columns,
                       int col_width)
    : title_(std::move(title)), columns_(std::move(columns)),
      col_width_(col_width), cells_(columns_.size())
{
}

void
ClassTable::add(WorkloadClass cls, std::size_t col, double value)
{
    cells_.at(col).add(cls, value);
}

double
ClassTable::geomean(WorkloadClass cls, std::size_t col) const
{
    return cells_.at(col).geomean(cls);
}

double
ClassTable::geomeanAll(std::size_t col) const
{
    return cells_.at(col).geomeanAll();
}

void
ClassTable::print(int normalize_to_col) const
{
    printHeader(title_);
    std::printf("%-8s", "class");
    for (const std::string &c : columns_)
        std::printf(" %*s", col_width_, c.c_str());
    std::printf("\n");

    for (WorkloadClass cls :
         {WorkloadClass::CC, WorkloadClass::CM, WorkloadClass::MM}) {
        std::printf("%-8s", classLabel(cls));
        const double base =
            normalize_to_col >= 0
                ? cells_[static_cast<std::size_t>(normalize_to_col)]
                      .geomean(cls)
                : 0.0;
        for (const ClassAggregate &agg : cells_) {
            double v = agg.geomean(cls);
            if (normalize_to_col >= 0 && base > 0)
                v /= base;
            std::printf(" %*.3f", col_width_, v);
        }
        std::printf("\n");
    }

    std::printf("%-8s", "ALL");
    const double base_all =
        normalize_to_col >= 0
            ? cells_[static_cast<std::size_t>(normalize_to_col)]
                  .geomeanAll()
            : 0.0;
    for (const ClassAggregate &agg : cells_) {
        double v = agg.geomeanAll();
        if (normalize_to_col >= 0 && base_all > 0)
            v /= base_all;
        std::printf(" %*.3f", col_width_, v);
    }
    std::printf("\n");
}

// ---- TextTable ---------------------------------------------------------

TextTable::TextTable(std::string title, std::string row_header,
                     std::vector<std::string> columns, int col_width,
                     int precision)
    : title_(std::move(title)), row_header_(std::move(row_header)),
      columns_(std::move(columns)), col_width_(col_width),
      precision_(precision)
{
}

void
TextTable::addRow(std::string label, std::vector<double> values)
{
    rows_.emplace_back(std::move(label), std::move(values));
}

void
TextTable::print() const
{
    printHeader(title_);
    std::printf("%-8s", row_header_.c_str());
    for (const std::string &c : columns_)
        std::printf(" %*s", col_width_, c.c_str());
    std::printf("\n");
    for (const auto &[label, values] : rows_) {
        std::printf("%-8s", label.c_str());
        for (double v : values)
            std::printf(" %*.*f", col_width_, precision_, v);
        std::printf("\n");
    }
}

} // namespace ckesim
