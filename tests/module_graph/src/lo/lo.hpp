#pragma once
/// The lower module of the module_graph fixture.

namespace fixture {
int lo_value();
}  // namespace fixture
