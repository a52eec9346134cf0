#include "store/format.hpp"

namespace aar::store {

const char* to_string(StreamKind kind) noexcept {
  switch (kind) {
    case StreamKind::queries: return "queries";
    case StreamKind::replies: return "replies";
    case StreamKind::pairs: return "pairs";
  }
  return "unknown";
}

}  // namespace aar::store
