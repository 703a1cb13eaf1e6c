#pragma once

#include "core/lcl.hpp"
#include "re/reduce.hpp"
#include "re/step.hpp"

namespace lcl::reference {

/// The original `lcl::reduce` (trim, merge and dominated-label drop iterated
/// to a fixed point, all on `LabelSet`s), linked only by tests and benches.
/// It takes `problem` by value like `lcl::reduce`. It must return a
/// `Reduction` identical to `lcl::reduce` on every input: same constraints,
/// same label names, same `old_to_new` and `new_to_old`.
Reduction reduce(NodeEdgeCheckableLcl problem);

/// The 511-label `apply_r` output at step 2 of the Delta=2 l=3 family member
/// `d2l3-n13-e34` (steps 0 and 1 reduce both operator outputs, as the
/// engine does). A cold Delta=2 l=3 survey feeds reduce() this iterate just
/// before the member's class blows up; the seed merge pass spent seconds on
/// it, which makes it the shared parity and bench fixture.
NodeEdgeCheckableLcl d2l3_blowup_iterate();

}  // namespace lcl::reference
