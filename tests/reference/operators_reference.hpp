#pragma once

#include "core/lcl.hpp"
#include "re/step.hpp"

namespace lcl::reference {

/// `R(pi)` and `Rbar(pi)` (Definitions 3.1/3.2) on the original
/// ordered-container enumeration over `LabelSet`s, linked only by tests and
/// benches. The production `apply_r`/`apply_rbar` must build the same
/// problems: same label names in the same order, same constraints, same
/// `g`, same meanings. The alphabet and configuration guards repeat the
/// production ones, messages included, so both refuse the same inputs the
/// same way. `limits.jobs` is ignored: the enumeration is serial.
ReStep apply_r_generic(const NodeEdgeCheckableLcl& pi,
                       const ReLimits& limits = {});
ReStep apply_rbar_generic(const NodeEdgeCheckableLcl& pi,
                          const ReLimits& limits = {});

}  // namespace lcl::reference
