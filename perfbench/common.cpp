#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "workloads.h"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
nearestRank(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void
printSamples(const std::string &label, const std::vector<double> &values)
{
    std::printf("samples %s", label.c_str());
    for (double v : values)
        std::printf(" %.6g", v);
    std::printf("\n");
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

} // namespace perfbench
