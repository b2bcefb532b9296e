// Fixture: waivers that sit inside SOCPINN_HOT bodies and name exactly
// the constructs on the lines they cover — stale-waiver must stay silent.
#include <vector>

#define SOCPINN_HOT [[gnu::hot]]

namespace fixture {

struct Scratch {
  std::vector<double> buf;
  std::vector<int> idx;
};

/// Documentation may quote the syntax anywhere:
///     // SOCPINN_HOT_ALLOW(resize): reuses warm capacity
SOCPINN_HOT void tick(Scratch& s) {
  // A justification may wrap onto several comment-only lines; the
  // SOCPINN_HOT_ALLOW(resize): waiver covers the first code line below
  // the whole block.
  s.buf.resize(8);
  s.idx.push_back(1);  // SOCPINN_HOT_ALLOW(push_back): warm capacity
  for (int i = 0; i < 2; ++i) {
    // SOCPINN_HOT_ALLOW(new): placement into a warm buffer
    new (&s.buf[i]) double(0.0);
  }
}

}  // namespace fixture
