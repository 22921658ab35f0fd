#include "framework/topology.hpp"

namespace quicsteps::framework {

const char* to_string(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kFifo:
      return "pfifo_fast";
    case QdiscKind::kFqCodel:
      return "fq_codel";
    case QdiscKind::kFq:
      return "fq";
    case QdiscKind::kEtf:
      return "etf";
    case QdiscKind::kEtfOffload:
      return "etf+launchtime";
  }
  return "?";
}

}  // namespace quicsteps::framework
