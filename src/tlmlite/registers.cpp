#include "tlmlite/registers.hpp"

#include <algorithm>

#include "dift/context.hpp"

namespace vpdift::tlmlite {

namespace {
std::uint32_t collect(const std::uint8_t* data, std::uint32_t n) {
  std::uint32_t v = 0;
  for (std::uint32_t i = 0; i < n && i < 4; ++i) v |= std::uint32_t(data[i]) << (8 * i);
  return v;
}
}  // namespace

void serve(RegisterTarget& t, Payload& p) {
  const std::uint32_t n = p.length;
  if (t.byte_window(p.address, n)) {
    for (std::uint32_t i = 0; i < n;) {
      std::uint32_t k = std::min<std::uint32_t>(n - i, 4);
      if (p.is_read()) {
        const RegRead r = t.read(p.address + i, k);
        if (!r.ok()) {
          p.response = r.response;
          return;
        }
        for (std::uint32_t j = 0; j < k; ++j) {
          p.data[i + j] = static_cast<std::uint8_t>(r.value >> (8 * j));
          if (p.tainted()) p.tags[i + j] = r.tag(j);
        }
      } else {
        std::optional<dift::Tag> tag;
        if (p.tainted()) {
          tag = p.tags[i];
          // One tag per write: lanes whose tags differ go one at a time.
          for (std::uint32_t j = 1; j < k; ++j)
            if (p.tags[i + j] != *tag) k = 1;
        }
        const Response r = t.write(p.address + i, k, collect(p.data + i, k), tag);
        if (r != Response::kOk) {
          p.response = r;
          return;
        }
      }
      i += k;
    }
    p.response = Response::kOk;
    return;
  }
  if (p.is_read()) {
    const RegRead r = t.read(p.address, n);
    p.response = r.response;
    if (!r.ok()) return;
    // Bytes beyond the register's width read as zero.
    for (std::uint32_t i = 0; i < n; ++i) {
      p.data[i] = i < 4 ? static_cast<std::uint8_t>(r.value >> (8 * i)) : 0;
      if (p.tainted()) p.tags[i] = r.tag(i < 4 ? i : 0);
    }
    if (r.uniform) p.set_tag_summary(r.tag());
    return;
  }
  std::optional<dift::Tag> tag;
  if (p.tainted() && n != 0) {
    dift::Tag all = p.tags[0];
    for (std::uint32_t i = 1; i < n; ++i) all = dift::lub(all, p.tags[i]);
    tag = all;
  }
  p.response = t.write(p.address, n, collect(p.data, n), tag);
}

}  // namespace vpdift::tlmlite
