#pragma once
/// The upper module of the module_graph fixture. No .cpp includes this
/// header, so when hi is declared below lo only the per-header check
/// compiles it: that check alone must catch the upward include.

#include "lo/lo.hpp"

namespace fixture {
inline int hi_value() { return lo_value() + 1; }
}  // namespace fixture
