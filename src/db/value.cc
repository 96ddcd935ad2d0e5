#include "db/value.h"

#include <cmath>
#include <cstdio>

namespace ssa {

std::string Value::ToString() const {
  switch (type_) {
    case Type::kNull:
      return "NULL";
    case Type::kString:
      return "'" + str() + "'";
    case Type::kNumber: {
      const double v = payload_.number;
      if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v);
      return buf;
    }
  }
  return "?";
}

}  // namespace ssa
