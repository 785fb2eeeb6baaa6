#pragma once

#include <string>

namespace gnn4tdl {

/// Appends `v` to `out` as printf's "%.17g" writes it, which is also what a
/// std::ostream at precision(17) prints: enough digits to read the same
/// double back. Writers build a whole text block this way and hand it to the
/// stream in one write, instead of formatting through operator<< per value.
void AppendDouble(std::string& out, double v);

}  // namespace gnn4tdl
