// Deliberately includes no header; see hi.hpp.
namespace fixture {
int hi_answer() { return 2; }
}  // namespace fixture
