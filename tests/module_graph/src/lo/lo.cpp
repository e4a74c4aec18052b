#include "lo/lo.hpp"

namespace fixture {
int lo_value() { return 1; }
}  // namespace fixture
