// Perf fixture (cold): the same patterns as hot.cpp, but this file is NOT
// tagged hot_path — cold() is unreachable from the hot set and must stay
// silent. alloc_helper() IS called from hot(), so the call graph pulls it
// into the hot set and its allocation on line 12 is flagged.
void cold() {
  auto* p = new Packet();
  auto u = std::make_unique<Packet>();
  queue.push_back(p);
}

void alloc_helper() {
  auto q = std::make_unique<Packet>();
}
