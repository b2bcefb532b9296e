// Fixture: SOCPINN_HOT_ALLOW waivers that no longer waive anything — each
// waiver line tagged EXPECT must be flagged by stale-waiver.
#include <vector>

#define SOCPINN_HOT [[gnu::hot]]

namespace fixture {

struct Scratch {
  std::vector<double> buf;
  std::vector<int> idx;
};

SOCPINN_HOT void tick(Scratch& s) {
  // The resize this justified was deleted; the next line has none.
  // SOCPINN_HOT_ALLOW(resize): warm capacity  // EXPECT stale-waiver
  s.buf[0] = 1.0;
  // One name of a multi-construct waiver went stale.
  // SOCPINN_HOT_ALLOW(push_back, reserve): warm  // EXPECT stale-waiver
  s.idx.push_back(1);
  s.buf[1] = 2.0;  // SOCPINN_HOT_ALLOW(assign): warm  // EXPECT stale-waiver
  // A waiver followed by a blank line covers nothing.
  // SOCPINN_HOT_ALLOW(resize): warm capacity  // EXPECT stale-waiver

  s.idx[0] = 2;
}

// A waiver in a cold function waives nothing.
void cold(Scratch& s) {
  // SOCPINN_HOT_ALLOW(resize): warm capacity  // EXPECT stale-waiver
  s.buf.resize(8);
}

}  // namespace fixture
