#include "compress/huffman.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

namespace wss::compress {

namespace {

constexpr unsigned char kFormatRaw = 0;
constexpr unsigned char kFormatHuffman = 1;

struct TreeNode {
  std::uint64_t freq = 0;
  int symbol = -1;  // -1 for internal
  int left = -1;
  int right = -1;
};

/// Computes code lengths for symbols with nonzero freq; returns true
/// if all lengths fit in kMaxCodeLen.
bool compute_lengths(const ByteFrequencies& freq, std::vector<int>& len) {
  len.assign(256, 0);
  std::vector<TreeNode> nodes;
  using Entry = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] > 0) {
      nodes.push_back(TreeNode{freq[static_cast<std::size_t>(s)], s, -1, -1});
      pq.emplace(nodes.back().freq, static_cast<int>(nodes.size() - 1));
    }
  }
  if (nodes.empty()) return true;
  if (nodes.size() == 1) {
    len[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return true;
  }
  while (pq.size() > 1) {
    const auto [fa, a] = pq.top();
    pq.pop();
    const auto [fb, b] = pq.top();
    pq.pop();
    nodes.push_back(TreeNode{fa + fb, -1, a, b});
    pq.emplace(fa + fb, static_cast<int>(nodes.size() - 1));
  }
  // Depth-first depth assignment.
  const int root = pq.top().second;
  bool ok = true;
  std::vector<std::pair<int, int>> stack = {{root, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[static_cast<std::size_t>(idx)];
    if (node.symbol >= 0) {
      len[static_cast<std::size_t>(node.symbol)] = std::max(depth, 1);
      if (depth > kMaxCodeLen) ok = false;
    } else {
      stack.emplace_back(node.left, depth + 1);
      stack.emplace_back(node.right, depth + 1);
    }
  }
  return ok;
}

/// Code lengths for `freq`, limited to kMaxCodeLen by halving the
/// frequencies until the tree fits.
std::vector<int> limited_lengths(ByteFrequencies f) {
  std::vector<int> len;
  while (!compute_lengths(f, len)) {
    for (auto& x : f) {
      if (x > 0) x = x / 2 + 1;
    }
  }
  return len;
}

/// Size of the huffman form (marker, 256 lengths, u64 count, the
/// bitstream) of any input with byte frequencies `freq`.
std::uint64_t huffman_form_size(const ByteFrequencies& freq,
                                const std::vector<int>& len) {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < 256; ++s) {
    bits += freq[s] * static_cast<std::uint64_t>(len[s]);
  }
  return 1 + 256 + 8 + (bits + 7) / 8;
}

/// Canonical codes from lengths (shorter codes first, then by symbol).
void canonical_codes(const std::vector<int>& len,
                     std::vector<std::uint32_t>& code) {
  code.assign(256, 0);
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (len[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int la = len[static_cast<std::size_t>(a)];
    const int lb = len[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t next = 0;
  int prev_len = 0;
  for (const int s : order) {
    const int l = len[static_cast<std::size_t>(s)];
    next <<= (l - prev_len);
    code[static_cast<std::size_t>(s)] = next;
    ++next;
    prev_len = l;
  }
}

class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}

  void write(std::uint32_t bits, int n) {
    for (int i = n - 1; i >= 0; --i) {
      acc_ = static_cast<unsigned char>((acc_ << 1) | ((bits >> i) & 1));
      if (++count_ == 8) {
        out_.push_back(static_cast<char>(acc_));
        acc_ = 0;
        count_ = 0;
      }
    }
  }

  void flush() {
    if (count_ > 0) {
      acc_ = static_cast<unsigned char>(acc_ << (8 - count_));
      out_.push_back(static_cast<char>(acc_));
      acc_ = 0;
      count_ = 0;
    }
  }

 private:
  std::string& out_;
  unsigned char acc_ = 0;
  int count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  int read_bit() {
    if (pos_ >= data_.size()) return -1;
    const int bit =
        (static_cast<unsigned char>(data_[pos_]) >> (7 - count_)) & 1;
    if (++count_ == 8) {
      count_ = 0;
      ++pos_;
    }
    return bit;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  int count_ = 0;
};

}  // namespace

std::string huffman_encode(std::string_view input) {
  ByteFrequencies freq{};
  for (const char c : input) ++freq[static_cast<unsigned char>(c)];
  const std::vector<int> len = limited_lengths(freq);

  if (huffman_form_size(freq, len) >= input.size() + 1) {
    std::string raw;
    raw.reserve(input.size() + 1);
    raw.push_back(static_cast<char>(kFormatRaw));
    raw.append(input);
    return raw;
  }

  std::vector<std::uint32_t> code;
  canonical_codes(len, code);

  std::string out;
  out.push_back(static_cast<char>(kFormatHuffman));
  for (int s = 0; s < 256; ++s) {
    out.push_back(static_cast<char>(len[static_cast<std::size_t>(s)]));
  }
  const std::uint64_t n = input.size();
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((n >> (8 * b)) & 0xff));
  }
  BitWriter bw(out);
  for (const char c : input) {
    const auto s = static_cast<unsigned char>(c);
    bw.write(code[s], len[s]);
  }
  bw.flush();
  return out;
}

std::uint64_t huffman_encoded_size(const ByteFrequencies& freq) {
  std::uint64_t n = 0;
  for (const std::uint64_t f : freq) n += f;
  return std::min(huffman_form_size(freq, limited_lengths(freq)), n + 1);
}

std::string huffman_decode(std::string_view encoded) {
  if (encoded.empty()) throw std::runtime_error("huffman: empty input");
  const auto fmt = static_cast<unsigned char>(encoded[0]);
  if (fmt == kFormatRaw) return std::string(encoded.substr(1));
  if (fmt != kFormatHuffman) throw std::runtime_error("huffman: bad marker");
  if (encoded.size() < 1 + 256 + 8) {
    throw std::runtime_error("huffman: truncated header");
  }

  std::vector<int> len(256);
  for (int s = 0; s < 256; ++s) {
    len[static_cast<std::size_t>(s)] =
        static_cast<unsigned char>(encoded[1 + static_cast<std::size_t>(s)]);
    if (len[static_cast<std::size_t>(s)] > kMaxCodeLen) {
      throw std::runtime_error("huffman: code length out of range");
    }
  }
  std::uint64_t n = 0;
  for (int b = 0; b < 8; ++b) {
    n |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(encoded[257 + static_cast<std::size_t>(b)]))
         << (8 * b);
  }

  // Canonical decoding tables: for each length, the first code value
  // and the index of its first symbol in the sorted symbol list.
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (len[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int la = len[static_cast<std::size_t>(a)];
    const int lb = len[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  if (order.empty() && n > 0) throw std::runtime_error("huffman: no codes");

  std::uint32_t first_code[kMaxCodeLen + 2] = {0};
  int first_index[kMaxCodeLen + 2] = {0};
  int count_per_len[kMaxCodeLen + 2] = {0};
  for (const int s : order) ++count_per_len[len[static_cast<std::size_t>(s)]];
  std::uint32_t c = 0;
  int idx = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    first_code[l] = c;
    first_index[l] = idx;
    c = (c + static_cast<std::uint32_t>(count_per_len[l])) << 1;
    idx += count_per_len[l];
  }

  BitReader br(encoded.substr(265));
  std::string out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint32_t acc = 0;
    int l = 0;
    for (;;) {
      const int bit = br.read_bit();
      if (bit < 0) throw std::runtime_error("huffman: truncated bitstream");
      acc = (acc << 1) | static_cast<std::uint32_t>(bit);
      ++l;
      if (l > kMaxCodeLen) throw std::runtime_error("huffman: bad code");
      if (count_per_len[l] > 0 &&
          acc < first_code[l] + static_cast<std::uint32_t>(count_per_len[l]) &&
          acc >= first_code[l]) {
        const int sym_idx =
            first_index[l] + static_cast<int>(acc - first_code[l]);
        out.push_back(
            static_cast<char>(order[static_cast<std::size_t>(sym_idx)]));
        break;
      }
    }
  }
  return out;
}

}  // namespace wss::compress
