#include "common/text_format.h"

#include <charconv>

#include "common/check.h"

namespace gnn4tdl {

void AppendDouble(std::string& out, double v) {
  // 17 significant digits in %g form take at most 24 characters
  // ("-1.2345678901234567e-308").
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  GNN4TDL_CHECK(r.ec == std::errc());
  out.append(buf, r.ptr);
}

}  // namespace gnn4tdl
