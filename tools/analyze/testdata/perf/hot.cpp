// Perf fixture (hot): tagged under "hot_path" in the sibling layers.json,
// so every pattern below must be flagged on its pinned line. The call to
// alloc_helper() drags that cold-file callable into the hot set
// transitively — its allocation is flagged over in cold.cpp.
void hot() {
  auto* p = new Packet();
  auto u = std::make_unique<Packet>();
  auto s = std::make_shared<Packet>();
  queue.push_back(p);
  queue.emplace_back();
  alloc_helper();
}
