// Fixture: SOCPINN_HOT bodies whose constructs are all correctly waived,
// plus banned tokens hidden in comments/strings that must NOT fire.
#include <string>
#include <vector>

#define SOCPINN_HOT [[gnu::hot]]

namespace fixture {

struct Scratch {
  std::vector<double> buf;
  std::vector<int> idx;
};

SOCPINN_HOT void tick(Scratch& s) {
  // SOCPINN_HOT_ALLOW(resize): shrinks into warm capacity after the
  // one-time warm-up tick (justification may wrap onto several
  // comment-only lines; the whole block belongs to the next code line)
  s.buf.resize(8);
  s.idx.push_back(1);  // SOCPINN_HOT_ALLOW(push_back): warm capacity
  // A comment mentioning push_back or new std::string must not fire.
  const char* msg = "resize() and make_unique in a string literal";
  (void)msg;
}

// Multi-construct waiver: both names listed, one justified reason, both
// constructs on the covered line.
SOCPINN_HOT void drain(Scratch& s) {
  // SOCPINN_HOT_ALLOW(push_back, resize): warm capacity, bounded
  s.idx.push_back(1); s.buf.resize(4);
}

// A bodyless annotated declaration is skipped, not an error.
SOCPINN_HOT void forward(Scratch& s);

void cold(Scratch& s) {
  s.buf.reserve(1024);  // unannotated: allocation is fine here
  std::string name = "cold path may build strings";
  (void)name;
}

}  // namespace fixture
