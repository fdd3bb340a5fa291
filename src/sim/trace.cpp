#include "sim/trace.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "nids/signature.h"
#include "util/check.h"

namespace nwlb::sim {

namespace {

using FillKernel = void (*)(std::uint64_t state, std::span<char> out);

#if defined(__x86_64__)
// z >> n per lane.  The zero-masked form, because GCC 12's plain
// _mm512_srli_epi64 trips -Wmaybe-uninitialized on its undefined source.
__attribute__((target("avx512f"))) inline __m512i shift_right(__m512i z, unsigned n) {
  return _mm512_maskz_srli_epi64(0xff, z, n);
}

// Eight splitmix64 lanes per step: lane l of step i holds the state after
// 8i + l + 1 increments.  The byte is 'a' + z % 17, and since
// 256 ≡ 1 (mod 17), z ≡ (sum of z's eight bytes) (mod 17).  _mm512_sad_epu8
// yields that sum t ≤ 2040 per lane, and for t ≤ 2040 (t * 3856) >> 16 is
// exactly t / 17, so r = t - 17 * q needs no division.  The masked
// narrowing store writes the eight bytes (fewer on the tail).
__attribute__((target("avx512f,avx512dq,avx512bw"))) void fill_avx512(
    std::uint64_t state, std::span<char> out) {
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  const __m512i lane = _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1);
  __m512i s = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(state)),
                               _mm512_mullo_epi64(lane, _mm512_set1_epi64(
                                                            static_cast<long long>(kGamma))));
  const __m512i step = _mm512_set1_epi64(static_cast<long long>(kGamma * 8));
  const __m512i mul1 = _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i recip = _mm512_set1_epi64(3856);
  const __m512i seventeen = _mm512_set1_epi64(17);
  const __m512i letter_a = _mm512_set1_epi64('a');
  char* dst = out.data();
  for (std::size_t i = 0; i < out.size(); i += 8) {
    __m512i z = s;
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, shift_right(z, 30)), mul1);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, shift_right(z, 27)), mul2);
    z = _mm512_xor_si512(z, shift_right(z, 31));
    // t and every product below fit in 32 bits, so 32-bit multiplies of the
    // low halves are exact (the high halves are zero).
    const __m512i t = _mm512_sad_epu8(z, zero);
    const __m512i q = shift_right(_mm512_mullo_epi32(t, recip), 16);
    const __m512i r = _mm512_sub_epi64(t, _mm512_mullo_epi32(q, seventeen));
    const std::size_t left = out.size() - i;
    const auto mask = static_cast<__mmask8>(left >= 8 ? 0xff : (1u << left) - 1);
    _mm512_mask_cvtepi64_storeu_epi8(dst + i, mask, _mm512_add_epi64(r, letter_a));
    s = _mm512_add_epi64(s, step);
  }
}
#endif

FillKernel pick_fill_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw"))
    return fill_avx512;
#endif
  return fill_payload_scalar;
}

}  // namespace

void fill_payload_scalar(std::uint64_t state, std::span<char> out) {
  for (char& byte : out) byte = static_cast<char>('a' + (nwlb::util::splitmix64(state) % 17));
}

void fill_payload(std::uint64_t state, std::span<char> out) {
  static const FillKernel kernel = pick_fill_kernel();
  kernel(state, out);
}

TraceGenerator::TraceGenerator(const std::vector<traffic::TrafficClass>& classes,
                               TraceConfig config, std::uint64_t seed)
    : classes_(&classes),
      config_(config),
      rng_(nwlb::util::derive_seed(seed, 0x7247)),
      signatures_(nids::SignatureEngine::default_rules()) {
  if (classes.empty()) throw std::invalid_argument("TraceGenerator: no classes");
  if (config_.min_payload < 16 || config_.max_payload < config_.min_payload)
    throw std::invalid_argument("TraceGenerator: bad payload bounds");
  weights_.reserve(classes.size());
  for (const auto& c : classes) weights_.push_back(c.sessions);
}

std::uint32_t TraceGenerator::pop_prefix(int pop) {
  if (pop < 0 || pop > 255) throw std::invalid_argument("pop_prefix: pop out of range");
  return (10u << 24) | (static_cast<std::uint32_t>(pop) << 16);
}

int TraceGenerator::pop_of_address(std::uint32_t ip) {
  return static_cast<int>((ip >> 16) & 0xff);
}

nids::FiveTuple TraceGenerator::sample_tuple(const traffic::TrafficClass& cls) {
  nids::FiveTuple t;
  t.src_ip = pop_prefix(cls.ingress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
  t.dst_ip = pop_prefix(cls.egress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
  t.src_port = static_cast<std::uint16_t>(1024 + rng_.below(64000));
  t.dst_port = static_cast<std::uint16_t>(rng_.bernoulli(0.7) ? 80 : 1 + rng_.below(1023));
  t.protocol = rng_.bernoulli(0.9) ? 6 : 17;
  return t;
}

std::vector<SessionSpec> TraceGenerator::generate(int count) {
  return generate_weighted(count, weights_);
}

std::vector<SessionSpec> TraceGenerator::generate_weighted(
    int count, std::span<const double> class_weights) {
  if (count < 0) throw std::invalid_argument("TraceGenerator::generate: negative count");
  if (class_weights.size() != classes_->size())
    throw std::invalid_argument(
        "TraceGenerator::generate_weighted: weight span size mismatch");
  std::vector<SessionSpec> out;
  out.reserve(static_cast<std::size_t>(count) +
              static_cast<std::size_t>(config_.scanners) *
                  static_cast<std::size_t>(config_.scan_fanout));
  for (int i = 0; i < count; ++i) {
    const auto class_index = rng_.weighted_index(class_weights);
    const auto& cls = (*classes_)[class_index];
    SessionSpec s;
    s.id = next_id_++;
    s.class_index = static_cast<int>(class_index);
    s.tuple = sample_tuple(cls);
    s.fwd_packets = 1 + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(config_.max_packets_per_direction)));
    s.rev_packets = 1 + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(config_.max_packets_per_direction)));
    s.payload_bytes = static_cast<int>(rng_.pareto(config_.min_payload,
                                                   config_.payload_pareto_alpha,
                                                   config_.max_payload));
    s.malicious = rng_.bernoulli(config_.malicious_fraction);
    out.push_back(s);
  }
  // Scan bursts: one source probing many distinct destinations with
  // single-packet sessions, class chosen per scanner.
  for (int scanner = 0; scanner < config_.scanners; ++scanner) {
    const auto class_index = rng_.weighted_index(class_weights);
    const auto& cls = (*classes_)[class_index];
    const std::uint32_t src =
        pop_prefix(cls.ingress) | static_cast<std::uint32_t>(rng_.below(1 << 16));
    for (int k = 0; k < config_.scan_fanout; ++k) {
      SessionSpec s;
      s.id = next_id_++;
      s.class_index = static_cast<int>(class_index);
      s.tuple = sample_tuple(cls);
      s.tuple.src_ip = src;
      // Distinct destinations: spread over the egress prefix.
      s.tuple.dst_ip = pop_prefix(cls.egress) | static_cast<std::uint32_t>(k + 1);
      s.fwd_packets = 1;
      s.rev_packets = 0;  // Probes typically go unanswered.
      s.payload_bytes = config_.min_payload;
      s.scanner = true;
      out.push_back(s);
    }
  }
  return out;
}

nids::Packet TraceGenerator::make_packet(const SessionSpec& session, int index,
                                         nids::Direction direction) const {
  nids::Packet packet;
  packet.payload.resize(static_cast<std::size_t>(session.payload_bytes));
  const nids::PacketView view = packet_into(
      session, index, direction, std::span<char>(packet.payload.data(), packet.payload.size()));
  packet.session_id = view.session_id;
  packet.direction = view.direction;
  packet.tuple = view.tuple;
  return packet;
}

nids::PacketView TraceGenerator::packet_into(const SessionSpec& session, int index,
                                            nids::Direction direction,
                                            std::span<char> payload_buf) const {
  const auto payload_bytes = static_cast<std::size_t>(session.payload_bytes);
  NWLB_CHECK(payload_buf.size() >= payload_bytes,
             "TraceGenerator::packet_into: payload buffer too small");
  nids::PacketView packet;
  packet.session_id = session.id;
  packet.direction = direction;
  packet.tuple =
      direction == nids::Direction::kForward ? session.tuple : session.tuple.reversed();
  // Deterministic filler derived from (id, index, direction).
  const std::uint64_t state = session.id * 1315423911u +
                              static_cast<std::uint64_t>(index) * 2654435761u +
                              (direction == nids::Direction::kReverse ? 0x9e37ULL : 0);
  fill_payload(state, payload_buf.first(payload_bytes));
  if (session.malicious && index == 0 && direction == nids::Direction::kForward) {
    const auto& sig = signatures_[session.id % signatures_.size()];
    if (sig.size() <= payload_bytes)
      std::memcpy(payload_buf.data() + (payload_bytes - sig.size()) / 2, sig.data(),
                  sig.size());
  }
  packet.payload = std::string_view(payload_buf.data(), payload_bytes);
  return packet;
}

}  // namespace nwlb::sim
