// Symbol-index golden fixture. The self-test pins which declarations
// become symbols (callables with a body, nothing else) and their token
// ranges; keep the shape stable.
namespace demo {

int global_counter = 0;
const int kLimit = 8;

struct Widget {
  int size() const { return n_; }
  int n_ = 0;
};

int helper(int x) { return x + 1; }

int entry(int x) {
  static int calls = 0;
  calls = calls + 1;
  auto bump = [&](int d) { return helper(d) + x; };
  return bump(x) + helper(x);
}

}  // namespace demo
