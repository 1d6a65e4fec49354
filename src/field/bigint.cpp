#include "field/bigint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace kp::field {

namespace {
// Karatsuba pays off once operands exceed this many limbs.
constexpr std::size_t kKaratsubaThreshold = 32;
}  // namespace

BigInt::BigInt(std::int64_t v) {
  negative_ = v < 0;
  // Avoid overflow on INT64_MIN by working in unsigned space.
  std::uint64_t mag =
      negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  while (mag) {
    limbs_.push_back(static_cast<Limb>(mag & 0xffffffffULL));
    mag >>= kLimbBits;
  }
}

BigInt::BigInt(const std::string& decimal) {
  std::size_t i = 0;
  bool neg = false;
  if (i < decimal.size() && (decimal[i] == '+' || decimal[i] == '-')) {
    neg = decimal[i] == '-';
    ++i;
  }
  assert(i < decimal.size() && "empty numeral");
  BigInt acc;
  for (; i < decimal.size(); ++i) {
    assert(decimal[i] >= '0' && decimal[i] <= '9' && "bad decimal digit");
    acc = acc * BigInt(10) + BigInt(decimal[i] - '0');
  }
  limbs_ = std::move(acc.limbs_);
  negative_ = neg;
  normalize();
}

void BigInt::trim(std::vector<Limb>& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

void BigInt::normalize() {
  trim(limbs_);
  if (limbs_.empty()) negative_ = false;
}

int BigInt::cmp_mag(const std::vector<Limb>& a, const std::vector<Limb>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<BigInt::Limb> BigInt::add_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  const auto& hi = a.size() >= b.size() ? a : b;
  const auto& lo = a.size() >= b.size() ? b : a;
  std::vector<Limb> out(hi.size() + 1, 0);
  Wide carry = 0;
  for (std::size_t i = 0; i < hi.size(); ++i) {
    Wide s = carry + hi[i] + (i < lo.size() ? lo[i] : 0);
    out[i] = static_cast<Limb>(s);
    carry = s >> kLimbBits;
  }
  out[hi.size()] = static_cast<Limb>(carry);
  trim(out);
  return out;
}

std::vector<BigInt::Limb> BigInt::sub_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  assert(cmp_mag(a, b) >= 0);
  std::vector<Limb> out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) -
                     (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0) - borrow;
    if (d < 0) {
      d += (1LL << kLimbBits);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<Limb>(d);
  }
  assert(borrow == 0);
  trim(out);
  return out;
}

std::vector<BigInt::Limb> BigInt::mul_schoolbook(const std::vector<Limb>& a,
                                                 const std::vector<Limb>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<Limb> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Wide carry = 0;
    const Wide ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      Wide cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<Limb>(cur);
      carry = cur >> kLimbBits;
    }
    out[i + b.size()] = static_cast<Limb>(carry);
  }
  trim(out);
  return out;
}

std::vector<BigInt::Limb> BigInt::mul_karatsuba(const std::vector<Limb>& a,
                                                const std::vector<Limb>& b) {
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto split = [half](const std::vector<Limb>& v) {
    std::vector<Limb> lo(v.begin(), v.begin() + std::min(half, v.size()));
    std::vector<Limb> hi(v.begin() + std::min(half, v.size()), v.end());
    trim(lo);
    return std::pair{std::move(lo), std::move(hi)};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);
  std::vector<Limb> z0 = mul_mag(a0, b0);
  std::vector<Limb> z2 = mul_mag(a1, b1);
  std::vector<Limb> z1 = mul_mag(add_mag(a0, a1), add_mag(b0, b1));
  z1 = sub_mag(z1, add_mag(z0, z2));  // a0*b1 + a1*b0

  std::vector<Limb> out(a.size() + b.size() + 1, 0);
  auto accumulate = [&out](const std::vector<Limb>& v, std::size_t shift) {
    Wide carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      Wide s = static_cast<Wide>(out[shift + i]) + v[i] + carry;
      out[shift + i] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
    for (; carry; ++i) {
      Wide s = static_cast<Wide>(out[shift + i]) + carry;
      out[shift + i] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  trim(out);
  return out;
}

std::vector<BigInt::Limb> BigInt::mul_mag(const std::vector<Limb>& a,
                                          const std::vector<Limb>& b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    return mul_schoolbook(a, b);
  }
  return mul_karatsuba(a, b);
}

// Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
void BigInt::divmod_mag(const std::vector<Limb>& num,
                        const std::vector<Limb>& den, std::vector<Limb>& quot,
                        std::vector<Limb>& rem) {
  assert(!den.empty() && "division by zero");
  quot.clear();
  rem.clear();
  if (cmp_mag(num, den) < 0) {
    rem = num;
    return;
  }
  if (den.size() == 1) {
    const Wide d = den[0];
    quot.assign(num.size(), 0);
    Wide r = 0;
    for (std::size_t i = num.size(); i-- > 0;) {
      Wide cur = (r << kLimbBits) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      r = cur % d;
    }
    trim(quot);
    if (r) rem.push_back(static_cast<Limb>(r));
    return;
  }

  // D1: normalize so the top limb of the divisor has its high bit set.
  int shift = 0;
  for (Limb top = den.back(); !(top & 0x80000000u); top <<= 1) ++shift;
  auto shl_limbs = [](const std::vector<Limb>& v, int s) {
    if (s == 0) return v;
    std::vector<Limb> out(v.size() + 1, 0);
    Limb carry = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] = (v[i] << s) | carry;
      carry = static_cast<Limb>(static_cast<Wide>(v[i]) >> (kLimbBits - s));
    }
    out[v.size()] = carry;
    trim(out);
    return out;
  };
  std::vector<Limb> u = shl_limbs(num, shift);
  const std::vector<Limb> v = shl_limbs(den, shift);
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;  // u.size() >= n because num >= den
  u.resize(u.size() + 1, 0);
  quot.assign(m + 1, 0);

  const Wide v_top = v[n - 1];
  const Wide v_next = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient digit from the top two/three limbs.
    const Wide numer = (static_cast<Wide>(u[j + n]) << kLimbBits) | u[j + n - 1];
    Wide qhat = numer / v_top;
    Wide rhat = numer % v_top;
    while (qhat >= (Wide(1) << kLimbBits) ||
           qhat * v_next > ((rhat << kLimbBits) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (Wide(1) << kLimbBits)) break;
    }
    // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    Wide carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide p = qhat * v[i] + carry;
      carry = p >> kLimbBits;
      std::int64_t d = static_cast<std::int64_t>(u[j + i]) -
                       static_cast<std::int64_t>(p & 0xffffffffULL) - borrow;
      if (d < 0) {
        d += (1LL << kLimbBits);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[j + i] = static_cast<Limb>(d);
    }
    std::int64_t d_top = static_cast<std::int64_t>(u[j + n]) -
                         static_cast<std::int64_t>(carry) - borrow;
    if (d_top < 0) {
      // D6: the estimate was one too large; add the divisor back.
      d_top += (1LL << kLimbBits);
      --qhat;
      Wide c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide s = static_cast<Wide>(u[j + i]) + v[i] + c;
        u[j + i] = static_cast<Limb>(s);
        c = s >> kLimbBits;
      }
      d_top += static_cast<std::int64_t>(c);
      d_top &= 0xffffffffLL;
    }
    u[j + n] = static_cast<Limb>(d_top);
    quot[j] = static_cast<Limb>(qhat);
  }
  trim(quot);
  // D8: denormalize the remainder.
  u.resize(n);
  if (shift) {
    Limb carry = 0;
    for (std::size_t i = u.size(); i-- > 0;) {
      const Limb cur = u[i];
      u[i] = (cur >> shift) | carry;
      carry = static_cast<Limb>(static_cast<Wide>(cur)
                                << (kLimbBits - shift));
    }
  }
  trim(u);
  rem = std::move(u);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  if (negative_ == o.negative_) {
    out.limbs_ = add_mag(limbs_, o.limbs_);
    out.negative_ = negative_;
  } else if (cmp_mag(limbs_, o.limbs_) >= 0) {
    out.limbs_ = sub_mag(limbs_, o.limbs_);
    out.negative_ = negative_;
  } else {
    out.limbs_ = sub_mag(o.limbs_, limbs_);
    out.negative_ = o.negative_;
  }
  out.normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  out.limbs_ = mul_mag(limbs_, o.limbs_);
  out.negative_ = negative_ != o.negative_;
  out.normalize();
  return out;
}

void BigInt::divmod(const BigInt& num, const BigInt& den, BigInt& quot,
                    BigInt& rem) {
  divmod_mag(num.limbs_, den.limbs_, quot.limbs_, rem.limbs_);
  quot.negative_ = num.negative_ != den.negative_;
  rem.negative_ = num.negative_;
  quot.normalize();
  rem.normalize();
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return r;
}

bool BigInt::operator==(const BigInt& o) const {
  return negative_ == o.negative_ && limbs_ == o.limbs_;
}

bool BigInt::operator<(const BigInt& o) const {
  if (negative_ != o.negative_) return negative_;
  const int c = cmp_mag(limbs_, o.limbs_);
  return negative_ ? c > 0 : c < 0;
}

namespace {

/// Binary (Stein) GCD on word-size magnitudes: shifts and subtractions only,
/// no division.  Profiling showed Euclid-on-BigInt (Knuth-D per step)
/// dominating small-rational normalization; word-size operands are by far
/// the common case there.
std::uint64_t gcd_binary_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  do {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  // Euclid while the operands are large; hand off to the word-size binary
  // GCD as soon as both magnitudes fit two limbs (which a % b reaches
  // quickly even for huge inputs, since remainders shrink geometrically).
  while (!b.is_zero()) {
    if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
      auto mag = [](const BigInt& v) -> std::uint64_t {
        std::uint64_t m = v.limbs_.empty() ? 0 : v.limbs_[0];
        if (v.limbs_.size() == 2) m |= static_cast<Wide>(v.limbs_[1]) << 32;
        return m;
      };
      const std::uint64_t g = gcd_binary_u64(mag(a), mag(b));
      BigInt out;
      out.limbs_.assign({static_cast<Limb>(g), static_cast<Limb>(g >> 32)});
      trim(out.limbs_);
      return out;
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::uint64_t BigInt::mod_u64(std::uint64_t m) const {
  assert(m >= 1);
  // Horner over the limbs, most significant first.  The 128-bit intermediate
  // is required: r < m can be up to 2^64 - 1, so (r << 32) | limb overflows
  // 64 bits for any m above 2^32.
  unsigned __int128 r = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    r = ((r << kLimbBits) | limbs_[i]) % m;
  }
  std::uint64_t out = static_cast<std::uint64_t>(r);
  if (negative_ && out != 0) out = m - out;
  return out;
}

BigInt BigInt::pow(std::uint64_t e) const {
  BigInt base = *this, acc(1);
  while (e) {
    if (e & 1) acc *= base;
    base *= base;
    e >>= 1;
  }
  return acc;
}

BigInt BigInt::shl(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / kLimbBits;
  const int bit_shift = static_cast<int>(bits % kLimbBits);
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const Wide v = static_cast<Wide>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<Limb>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<Limb>(v >> kLimbBits);
  }
  out.normalize();
  return out;
}

BigInt BigInt::shr(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return {};
  const int bit_shift = static_cast<int>(bits % kLimbBits);
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    Wide v = static_cast<Wide>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<Wide>(limbs_[i + limb_shift + 1])
           << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = static_cast<Limb>(v);
  }
  out.normalize();
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * kLimbBits;
  Limb top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::fits_int64() const {
  if (bit_length() < 64) return true;
  // INT64_MIN is the single 64-bit magnitude that still fits when negative.
  return bit_length() == 64 && negative_ && limbs_[0] == 0 &&
         limbs_[1] == 0x80000000u;
}

std::int64_t BigInt::to_int64() const {
  assert(fits_int64());
  std::uint64_t mag = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    mag = (mag << kLimbBits) | limbs_[i];
  }
  // Negate in unsigned arithmetic: -2^63 has no positive int64 counterpart.
  return static_cast<std::int64_t>(negative_ ? 0 - mag : mag);
}

double BigInt::to_double() const {
  double out = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -out : out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Peel 9 decimal digits at a time with single-limb division.
  std::vector<Limb> mag = limbs_;
  std::string out;
  while (!mag.empty()) {
    Wide r = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      const Wide cur = (r << kLimbBits) | mag[i];
      mag[i] = static_cast<Limb>(cur / 1000000000u);
      r = cur % 1000000000u;
    }
    trim(mag);
    std::string chunk = std::to_string(r);
    if (!mag.empty()) chunk.insert(0, 9 - chunk.size(), '0');
    out.insert(0, chunk);
  }
  if (negative_) out.insert(0, 1, '-');
  return out;
}

std::size_t BigInt::hash() const {
  std::size_t h = negative_ ? 0x9e3779b97f4a7c15ULL : 0;
  for (Limb l : limbs_) h = h * 1099511628211ULL ^ l;
  return h;
}

}  // namespace kp::field
