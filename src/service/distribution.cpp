#include "service/distribution.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "service/fault.hpp"

namespace xaas::service {

// ---- DistributionFabric ---------------------------------------------------

DistributionFabric::DistributionFabric(DistributionOptions options)
    : options_(std::move(options)) {}

void DistributionFabric::charge(MessageKind kind, std::uint64_t wire_bytes) {
  switch (kind) {
    case MessageKind::Manifest:
      manifest_msgs_.fetch_add(1, std::memory_order_relaxed);
      manifest_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
      break;
    case MessageKind::Request:
      request_msgs_.fetch_add(1, std::memory_order_relaxed);
      request_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
      break;
    case MessageKind::Blob:
      blob_msgs_.fetch_add(1, std::memory_order_relaxed);
      blob_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
      break;
    case MessageKind::Gossip:
      gossip_msgs_.fetch_add(1, std::memory_order_relaxed);
      gossip_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
      break;
  }
  // Integer nanoseconds so concurrent charges sum exactly — the
  // reconciliation identities tolerate no floating-point drift.
  const auto nanos = static_cast<std::uint64_t>(
      std::llround(fabric::transfer_seconds(options_.stack, wire_bytes) * 1e9));
  transfer_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

void DistributionFabric::register_peer(DistributionPeer* peer) {
  std::lock_guard lock(mutex_);
  ring_.push_back(peer);
}

void DistributionFabric::deregister_peer(DistributionPeer* peer) {
  std::lock_guard lock(mutex_);
  ring_.erase(std::remove(ring_.begin(), ring_.end(), peer), ring_.end());
}

std::vector<DistributionPeer*> DistributionFabric::peers() const {
  std::lock_guard lock(mutex_);
  return ring_;
}

DistributionPeer* DistributionFabric::find(std::string_view name) const {
  std::lock_guard lock(mutex_);
  for (DistributionPeer* peer : ring_) {
    if (peer->name() == name) return peer;
  }
  return nullptr;
}

DistributionStats DistributionFabric::stats() const {
  DistributionStats stats;
  stats.manifest_msgs = manifest_msgs_.load(std::memory_order_relaxed);
  stats.manifest_bytes = manifest_bytes_.load(std::memory_order_relaxed);
  stats.request_msgs = request_msgs_.load(std::memory_order_relaxed);
  stats.request_bytes = request_bytes_.load(std::memory_order_relaxed);
  stats.blobs_sent = blob_msgs_.load(std::memory_order_relaxed);
  stats.blob_bytes = blob_bytes_.load(std::memory_order_relaxed);
  stats.gossip_msgs = gossip_msgs_.load(std::memory_order_relaxed);
  stats.gossip_bytes = gossip_bytes_.load(std::memory_order_relaxed);
  stats.blobs_accepted = blobs_accepted_.load(std::memory_order_relaxed);
  stats.blobs_rejected = blobs_rejected_.load(std::memory_order_relaxed);
  stats.dedup_saved_bytes =
      dedup_saved_bytes_.load(std::memory_order_relaxed);
  stats.transfer_nanos = transfer_nanos_.load(std::memory_order_relaxed);
  return stats;
}

// ---- DistributionPeer -----------------------------------------------------

DistributionPeer::DistributionPeer(std::string name, ArtifactStore& store,
                                   DistributionFabric& fabric)
    : name_(std::move(name)), store_(store), fabric_(fabric) {
  fabric_.register_peer(this);
}

DistributionPeer::~DistributionPeer() { fabric_.deregister_peer(this); }

Manifest DistributionPeer::manifest() const {
  Manifest m;
  m.peer = name_;
  m.blobs = store_.enumerate_blobs();
  return m;
}

BlobRequest DistributionPeer::missing_digests(const Manifest& theirs) const {
  BlobRequest need;
  for (const auto& ref : theirs.blobs) {
    if (!store_.contains_blob(ref.digest)) need.digests.push_back(ref.digest);
  }
  return need;
}

std::optional<BlobEnvelope> DistributionPeer::send_envelope(
    const std::string& digest) {
  auto blob = store_.read_blob(digest);
  if (!blob) return std::nullopt;  // absent, or locally corrupt (deleted)
  BlobEnvelope envelope;
  envelope.digest = digest;
  envelope.blob = std::move(*blob);
  // In-flight corruption strikes after the sender's read-side
  // verification: the sender believes it shipped a good blob, and only
  // the receiver's end-to-end check can catch the damage.
  fault::corrupts(fault::kDistTransfer, digest, envelope.blob);
  const std::uint64_t wire = envelope.wire_bytes();
  fabric_.charge(DistributionFabric::MessageKind::Blob, wire);
  fabric_.count_sent();
  blobs_out_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(wire, std::memory_order_relaxed);
  return envelope;
}

bool DistributionPeer::accept(const BlobEnvelope& envelope, BlobSource source) {
  if (!store_.adopt_blob(envelope.digest, envelope.blob)) {
    fabric_.count_rejected();
    verify_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  fabric_.count_accepted();
  blobs_in_.fetch_add(1, std::memory_order_relaxed);
  bytes_in_.fetch_add(envelope.wire_bytes(), std::memory_order_relaxed);
  switch (source) {
    case BlobSource::Push:
      pushed_in_.fetch_add(1, std::memory_order_relaxed);
      break;
    case BlobSource::Prewarm:
      prewarm_fetches_.fetch_add(1, std::memory_order_relaxed);
      break;
    case BlobSource::Lazy:
      lazy_fetches_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return true;
}

PushResult DistributionPeer::push_to(DistributionPeer& target) {
  PushResult result;
  const Manifest mine = manifest();
  fabric_.charge(DistributionFabric::MessageKind::Manifest, mine.wire_bytes());
  const BlobRequest need = target.missing_digests(mine);
  fabric_.charge(DistributionFabric::MessageKind::Request, need.wire_bytes());

  // Dedup accounting: every advertised blob the target already had is a
  // layer the naive protocol would have re-shipped.
  std::uint64_t needed_bytes = 0;
  std::uint64_t advertised_bytes = 0;
  for (const auto& ref : mine.blobs) advertised_bytes += ref.bytes;
  for (const auto& digest : need.digests) {
    const auto it = std::find_if(
        mine.blobs.begin(), mine.blobs.end(),
        [&](const ArtifactStore::BlobRef& ref) { return ref.digest == digest; });
    if (it != mine.blobs.end()) needed_bytes += it->bytes;
  }
  result.skipped = mine.blobs.size() - need.digests.size();
  result.saved_bytes = advertised_bytes - needed_bytes;
  fabric_.count_saved(result.saved_bytes);

  for (const auto& digest : need.digests) {
    const auto envelope = send_envelope(digest);
    if (!envelope) continue;
    if (target.accept(*envelope, BlobSource::Push)) {
      ++result.shipped;
      result.shipped_bytes += envelope->wire_bytes();
    }
  }
  return result;
}

PushResult DistributionPeer::push_full(DistributionPeer& target) {
  PushResult result;
  for (const auto& ref : store_.enumerate_blobs()) {
    const auto envelope = send_envelope(ref.digest);
    if (!envelope) continue;
    if (target.accept(*envelope, BlobSource::Push)) {
      ++result.shipped;
      result.shipped_bytes += envelope->wire_bytes();
    }
  }
  return result;
}

bool DistributionPeer::ensure_local(std::string_view kind,
                                    std::string_view key) {
  const std::string digest = ArtifactStore::blob_digest(kind, key);
  if (store_.contains_blob(digest)) return true;

  // Walk the ring starting after this peer (registration order), asking
  // each peer in turn. A rejected envelope — corrupted in flight — is
  // retried from the next peer: a transfer fault costs a re-fetch,
  // never a wrong artifact and never a spurious rebuild while any peer
  // still holds a good copy.
  const auto ring = fabric_.peers();
  const auto self =
      std::find(ring.begin(), ring.end(), static_cast<DistributionPeer*>(this));
  const std::size_t start =
      self == ring.end() ? 0 : static_cast<std::size_t>(self - ring.begin());
  for (std::size_t i = 1; i <= ring.size(); ++i) {
    DistributionPeer* peer = ring[(start + i) % ring.size()];
    if (peer == this) continue;
    BlobRequest want;
    want.digests.push_back(digest);
    fabric_.charge(DistributionFabric::MessageKind::Request, want.wire_bytes());
    const auto envelope = peer->send_envelope(digest);
    if (!envelope) continue;  // peer does not have it
    if (accept(*envelope, BlobSource::Lazy)) return true;
  }
  return store_.contains_blob(digest);
}

void DistributionPeer::announce(std::string_view kind, std::string_view key) {
  const std::string digest = ArtifactStore::blob_digest(kind, key);
  std::lock_guard lock(hints_mutex_);
  auto& bytes = hot_hints_[digest];
  if (bytes == 0) bytes = store_.blob_bytes(digest);
}

std::vector<WarmHint> DistributionPeer::hot_hints_snapshot() const {
  // Advertise only what we have: a hint merged from gossip stays latent
  // until the local pull lands, so no peer ever relays an advertisement
  // it could not serve.
  std::vector<std::pair<std::string, std::uint64_t>> hints;
  {
    std::lock_guard lock(hints_mutex_);
    hints.assign(hot_hints_.begin(), hot_hints_.end());
  }
  std::vector<WarmHint> present;
  for (auto& [digest, bytes] : hints) {
    if (!store_.contains_blob(digest)) continue;
    present.push_back({digest, bytes != 0 ? bytes : store_.blob_bytes(digest)});
  }
  return present;
}

std::size_t DistributionPeer::gossip_round() {
  GossipMessage message;
  message.from = name_;
  message.hints = hot_hints_snapshot();
  if (message.hints.empty()) return 0;

  const auto ring = fabric_.peers();
  if (ring.size() < 2) return 0;
  const auto self =
      std::find(ring.begin(), ring.end(), static_cast<DistributionPeer*>(this));
  const std::size_t start =
      self == ring.end() ? 0 : static_cast<std::size_t>(self - ring.begin());
  const std::size_t fanout =
      std::min(fabric_.options().gossip_fanout, ring.size() - 1);
  std::size_t accepted = 0;
  for (std::size_t i = 1; i <= fanout; ++i) {
    DistributionPeer* successor = ring[(start + i) % ring.size()];
    if (successor == this) continue;
    fabric_.charge(DistributionFabric::MessageKind::Gossip,
                   message.wire_bytes());
    accepted += successor->receive_gossip(message, *this);
  }
  return accepted;
}

std::size_t DistributionPeer::receive_gossip(const GossipMessage& message,
                                             DistributionPeer& sender) {
  // Merge first (under the hints mutex), pull after (lock released): a
  // pull re-enters the sender's store and must never run under any
  // peer-level lock.
  {
    std::lock_guard lock(hints_mutex_);
    for (const auto& hint : message.hints) {
      auto& bytes = hot_hints_[hint.digest];
      if (bytes == 0) bytes = hint.bytes;
    }
  }
  std::size_t accepted = 0;
  for (const auto& hint : message.hints) {
    if (store_.contains_blob(hint.digest)) continue;
    const auto envelope = sender.send_envelope(hint.digest);
    if (!envelope) continue;
    if (accept(*envelope, BlobSource::Prewarm)) ++accepted;
    // A rejected pre-warm pull stays missing: the next gossip round (or
    // a lazy pull) recovers it.
  }
  return accepted;
}

PeerStats DistributionPeer::stats() const {
  PeerStats stats;
  stats.blobs_in = blobs_in_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.blobs_out = blobs_out_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.pushed_in = pushed_in_.load(std::memory_order_relaxed);
  stats.prewarm_fetches = prewarm_fetches_.load(std::memory_order_relaxed);
  stats.lazy_fetches = lazy_fetches_.load(std::memory_order_relaxed);
  stats.verify_rejects = verify_rejects_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace xaas::service
