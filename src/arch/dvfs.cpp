#include "arch/dvfs.hpp"

#include <algorithm>
#include <cmath>

namespace hp::arch {

double DvfsParams::voltage_for(double f_hz) const {
    const double f = std::clamp(f_hz, f_min_hz, f_max_hz);
    if (f_max_hz == f_min_hz) return v_max;
    const double alpha = (f - f_min_hz) / (f_max_hz - f_min_hz);
    return v_min + alpha * (v_max - v_min);
}

std::vector<double> DvfsParams::levels() const {
    std::vector<double> out;
    visit_levels([&out](double f) {
        out.push_back(f);
        return true;
    });
    return out;
}

double DvfsParams::quantize_down(double f_hz) const {
    if (f_hz >= f_max_hz) return f_max_hz;
    if (f_hz <= f_min_hz) return f_min_hz;
    const double steps = std::floor((f_hz - f_min_hz) / step_hz);
    return f_min_hz + steps * step_hz;
}

std::size_t DvfsParams::level_count() const {
    return static_cast<std::size_t>(
               std::floor((f_max_hz - f_min_hz) / step_hz + 1e-9)) +
           1;
}

}  // namespace hp::arch
