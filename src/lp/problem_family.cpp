#include "carbon/lp/problem_family.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace carbon::lp {

ProblemFamily::ProblemFamily(Problem problem) : p_(std::move(problem)) {
  const std::string err = p_.validate();
  if (!err.empty()) {
    throw std::invalid_argument("lp::ProblemFamily: malformed problem: " +
                                err);
  }
  panels_ = std::make_shared<const ColumnPanels>(p_);
}

void ProblemFamily::rebind(std::span<const double> c) {
  if (c.size() > p_.objective.size()) {
    throw std::invalid_argument(
        "lp::ProblemFamily::rebind: cost vector longer than objective");
  }
  std::copy(c.begin(), c.end(), p_.objective.begin());
  ++rebinds_;
}

}  // namespace carbon::lp
