// Fixture: random_device / unordered containers / thread sleep.
#include <random>
#include <thread>
#include <unordered_map>

unsigned seed() {
  std::random_device rd;  // line 7: determinism/random-device
  return rd();
}

int lookup(int k) {
  std::unordered_map<int, int> m;  // line 12: determinism/unordered-container
  return m[k];
}

void nap() {
  std::this_thread::sleep_for(  // line 17: determinism/thread-sleep
      std::chrono::milliseconds(1));  // line 18: determinism/wall-clock
}

using namespace std;
unordered_set<int> seen;  // line 22: determinism/unordered-container
