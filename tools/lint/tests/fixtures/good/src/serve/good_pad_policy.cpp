// Fixture: an engine that stages exactly its columns and only mentions the
// tile — in comments and strings. None of these may be flagged.
#include <cstddef>

namespace fixture {

// Thin batches are padded to nn::kColumnsMinBatch by the forward.
template <typename Panel>
void stage(Panel& input, std::size_t count) {
  input.resize(4, count);
}

const char* describe() { return "padded to kColumnsMinBatch by the forward"; }

/* kColumnsMinBatch is named only in nn/panel.hpp and nn/panel.cpp. */

}  // namespace fixture
