#include "core/pattern_op.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace sgq {

namespace {

void PutPatternKey(std::string* out, const SmallVec<uint64_t, 3>& key) {
  PutU32(out, static_cast<std::uint32_t>(key.size()));
  for (uint64_t v : key) PutU64(out, v);
}

SmallVec<uint64_t, 3> GetPatternKey(ByteReader* in) {
  SmallVec<uint64_t, 3> key;
  const std::uint32_t n = in->U32();
  for (std::uint32_t i = 0; i < n && in->ok(); ++i) key.push_back(in->U64());
  return key;
}

bool KeyLess(const SmallVec<uint64_t, 3>& a, const SmallVec<uint64_t, 3>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

PatternOp::PatternOp(const LogicalOp& pattern,
                     std::vector<PatternPortState> port_state) {
  SGQ_CHECK(pattern.kind == LogicalOpKind::kPattern);
  num_ports_ = static_cast<int>(pattern.child_vars.size());
  out_label_ = pattern.output_label;

  // Assign dense indexes to variables in order of first appearance.
  FlatMap<std::string, int> var_index;
  auto index_of = [&](const std::string& name) {
    auto [it, inserted] =
        var_index.try_emplace(name, static_cast<int>(var_index.size()));
    (void)inserted;
    return it->second;
  };
  for (const auto& [src, trg] : pattern.child_vars) {
    // Target first, sequenced (argument order is unspecified): bindings,
    // join keys, replay order and checkpoint bytes follow this numbering.
    const int trg_var = index_of(trg);
    port_vars_.emplace_back(index_of(src), trg_var);
  }
  out_src_var_ = index_of(pattern.out_src_var);
  out_trg_var_ = index_of(pattern.out_trg_var);
  num_vars_ = var_index.size();
  for (int v : {out_src_var_, out_trg_var_}) {
    if (v == port_vars_[0].first || v == port_vars_[0].second) {
      posting_var_ = v;
      break;
    }
  }

  // Level j joins acc(ports 0..j) with port j+1 on their shared variables.
  std::set<int> acc_vars = {port_vars_[0].first, port_vars_[0].second};
  for (int p = 1; p < num_ports_; ++p) {
    Level level;
    for (int v : {port_vars_[p].first, port_vars_[p].second}) {
      if (acc_vars.count(v) > 0) level.key_vars.push_back(v);
    }
    std::sort(level.key_vars.begin(), level.key_vars.end());
    level.key_vars.erase(
        std::unique(level.key_vars.begin(), level.key_vars.end()),
        level.key_vars.end());

    // Move the port's single-atom state into the runtime WindowStore when
    // a partition was provided, the port's label is static, and the level
    // has a join key to probe the index with.
    if (static_cast<std::size_t>(p) < port_state.size() &&
        port_state[static_cast<std::size_t>(p)].store != nullptr &&
        port_state[static_cast<std::size_t>(p)].label != kInvalidLabel &&
        !level.key_vars.empty()) {
      level.store = port_state[static_cast<std::size_t>(p)].store;
      level.store_label = port_state[static_cast<std::size_t>(p)].label;
      const auto& [sv, tv] = port_vars_[static_cast<std::size_t>(p)];
      const bool has_src =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             sv);
      const bool has_trg =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             tv);
      if (has_src && has_trg) {
        level.probe = ProbeKind::kOutFiltered;
      } else if (has_src) {
        level.probe = ProbeKind::kOut;
      } else {
        level.probe = ProbeKind::kIn;
        level.store->EnableInIndex();
      }
    }

    levels_.push_back(std::move(level));
    acc_vars.insert(port_vars_[p].first);
    acc_vars.insert(port_vars_[p].second);
  }
}

bool PatternOp::BindPort(int port, const Sgt& tuple, Binding* out) const {
  const auto& [src_var, trg_var] = port_vars_[port];
  if (src_var == trg_var && tuple.src != tuple.trg) return false;
  out->vals.assign(num_vars_, kInvalidVertex);
  out->vals[static_cast<std::size_t>(src_var)] = tuple.src;
  out->vals[static_cast<std::size_t>(trg_var)] = tuple.trg;
  out->iv = tuple.validity;
  return true;
}

PatternOp::Key PatternOp::ExtractKey(const Level& level,
                                     const Binding& b) const {
  Key key;
  for (int v : level.key_vars) {
    key.push_back(b.vals[static_cast<std::size_t>(v)]);
  }
  return key;
}

template <typename Fn>
void PatternOp::ForEachRightMatch(std::size_t level_idx, const Key& key,
                                  Fn&& fn) const {
  const Level& lv = levels_[level_idx];
  const int port = static_cast<int>(level_idx) + 1;
  if (lv.store == nullptr) {
    auto it = lv.right.find(key);
    if (it == lv.right.end()) return;
    for (const Binding& other : it->second) fn(other);
    return;
  }
  // The key vector is aligned with the sorted key_vars.
  auto key_val = [&](int var) {
    const auto pos =
        std::lower_bound(lv.key_vars.begin(), lv.key_vars.end(), var);
    return key[static_cast<std::size_t>(pos - lv.key_vars.begin())];
  };
  const auto& [src_var, trg_var] = port_vars_[static_cast<std::size_t>(port)];
  Binding b;
  auto try_edge = [&](VertexId s, VertexId g, const Interval& iv) {
    const Sgt tuple(s, g, lv.store_label, iv);
    if (BindPort(port, tuple, &b)) fn(b);
  };
  switch (lv.probe) {
    case ProbeKind::kOutFiltered: {
      const VertexId s = key_val(src_var);
      const VertexId g = key_val(trg_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        if (e.trg == g) try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kOut: {
      const VertexId s = key_val(src_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kIn: {
      const VertexId g = key_val(trg_var);
      // Reverse-index entries store the *source* in `trg`.
      for (const StoredEdge& e : lv.store->InEdges(g, lv.store_label)) {
        try_edge(e.trg, g, e.validity);
      }
      break;
    }
  }
}

void PatternOp::InsertCoalesced(int level, bool left, const Key& key,
                                Binding b) {
  Level& lv = levels_[static_cast<std::size_t>(level)];
  Table& table = left ? lv.left : lv.right;
  std::size_t& entries = left ? lv.left_entries : lv.right_entries;
  auto [it, inserted] = table.try_emplace(key);
  (void)inserted;
  Bucket& bucket = it->second;
  for (Binding& existing : bucket) {
    if (existing.vals == b.vals && existing.iv.OverlapsOrAdjacent(b.iv)) {
      const Timestamp old_exp = existing.iv.exp;
      existing.iv = existing.iv.Span(b.iv);
      if (existing.iv.exp > old_exp) {
        binding_expiry_.Add(existing.iv.exp, BucketRef{level, left, key});
      }
      return;
    }
  }
  binding_expiry_.Add(b.iv.exp, BucketRef{level, left, key});
  if (postings_built_ && level == 0 && left) AddPosting(b, key);
  bucket.push_back(&bucket_pool_, std::move(b));
  ++entries;
}

PatternOp::Binding PatternOp::Merge(const Binding& a, const Binding& b) {
  Binding out;
  out.vals = a.vals;
  for (std::size_t i = 0; i < out.vals.size(); ++i) {
    if (out.vals[i] == kInvalidVertex) out.vals[i] = b.vals[i];
  }
  out.iv = a.iv.Intersect(b.iv);
  return out;
}

bool PatternOp::MayReassert(const Binding& b) const {
  const VertexId s = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId t = b.vals[static_cast<std::size_t>(out_trg_var_)];
  if (s != kInvalidVertex && t != kInvalidVertex) {
    return retracted_values_.contains(EdgeRef(s, t, out_label_));
  }
  if (s != kInvalidVertex) return retracted_srcs_.contains(s);
  if (t != kInvalidVertex) return retracted_trgs_.contains(t);
  return true;
}

void PatternOp::Cascade(std::size_t level, const Binding& acc, Mode mode) {
  // kRetract walks through empty intervals too (projecting nothing), so
  // its scrub also finds expired bindings embedding the deleted tuple.
  if (acc.iv.Empty() && mode != Mode::kRetract) return;
  // Reassert replay prune: state writes below are idempotent, so only
  // bindings that can reach a retracted output value matter, and only
  // while they outlive the deletion (joins never extend an interval).
  if (mode == Mode::kReassert &&
      (acc.iv.exp <= reassert_time_ || !MayReassert(acc))) {
    return;
  }
  if (level >= levels_.size()) {
    if (!acc.iv.Empty()) Project(acc, mode);
    return;
  }
  Level& lv = levels_[level];
  const Key key = ExtractKey(lv, acc);
  // kRetract only records the bucket for RetractForDeletion's scrub;
  // kReassert re-inserts idempotently (identical bindings coalesce away).
  if (mode == Mode::kRetract) {
    retract_keys_.emplace_back(level, key);
  } else {
    InsertCoalesced(static_cast<int>(level), /*left=*/true, key, acc);
  }
  ForEachRightMatch(level, key, [&](const Binding& other) {
    Binding merged = Merge(acc, other);
    Cascade(level + 1, merged, mode);
  });
}

void PatternOp::Project(const Binding& b, Mode mode) {
  const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
  // Payload: the derived edge itself (Def. 19).
  const EdgeRef derived(src, trg, out_label_);
  switch (mode) {
    case Mode::kInsert: {
      Sgt out(src, trg, out_label_, b.iv, {derived});
      if (out_coalescer_.Offer(out)) EmitTuple(out);
      break;
    }
    case Mode::kRetract: {
      Sgt out(src, trg, out_label_, b.iv, {derived}, /*del=*/true);
      out_coalescer_.Forget(derived, b.iv.ts);
      retracted_values_.insert(derived);
      EmitTuple(out);
      break;
    }
    case Mode::kReassert: {
      if (!retracted_values_.contains(derived)) break;
      Sgt out(src, trg, out_label_, b.iv, {derived});
      if (out_coalescer_.Offer(out)) EmitTuple(out);
      break;
    }
  }
}

void PatternOp::OnTuple(int port, const Sgt& tuple) {
  SGQ_CHECK_GE(port, 0);
  SGQ_CHECK_LT(port, num_ports_);
  if (num_ports_ > 1 && tuple.is_deletion) {
    // Unsharded deletion: the two coordination phases composed
    // back-to-back on this instance reproduce the original
    // single-threaded retract + reassert exactly (the extra Forget in
    // ReassertRetracted is a no-op on values already forgotten by the
    // retract cascade).
    ReassertRetracted(RetractForDeletion(port, tuple), tuple.validity.ts);
    return;
  }
  Binding b;
  if (!BindPort(port, tuple, &b)) return;

  if (num_ports_ == 1) {
    // A single-atom pattern is a rename/projection: it preserves the input
    // payload so materialized paths stay first-class through it (R3).
    const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
    const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
    Sgt out(src, trg, out_label_, b.iv, tuple.payload, tuple.is_deletion);
    if (tuple.is_deletion) {
      out_coalescer_.Forget(out.edge(), out.validity.ts);
      EmitTuple(out);
    } else if (out_coalescer_.Offer(out)) {
      EmitTuple(out);
    }
    return;
  }

  if (port == 0) {
    Cascade(0, b, Mode::kInsert);
    return;
  }
  // Symmetric side: store the port tuple, then probe the accumulated side.
  Level& lv = levels_[static_cast<std::size_t>(port - 1)];
  const Key key = ExtractKey(lv, b);
  if (lv.store != nullptr) {
    SGQ_DCHECK(tuple.label == lv.store_label);
    lv.store->Insert(tuple.src, tuple.trg, lv.store_label, b.iv);
  } else {
    InsertCoalesced(port - 1, /*left=*/false, key, b);
  }
  auto it = lv.left.find(key);
  if (it == lv.left.end()) return;
  for (const Binding& acc : it->second) {
    Binding merged = Merge(acc, b);
    Cascade(static_cast<std::size_t>(port), merged, Mode::kInsert);
  }
}

template <typename Drop>
void PatternOp::CompactBucket(Table* table, std::size_t* entries,
                              const Key& key, Drop&& drop) {
  auto it = table->find(key);
  if (it == table->end()) return;
  Bucket& bucket = it->second;
  const bool posted = postings_built_ && table == &levels_[0].left;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (drop(bucket[i])) {
      if (posted) DropPosting(bucket[i], key);
      continue;
    }
    if (keep != i) bucket[keep] = std::move(bucket[i]);
    ++keep;
  }
  *entries -= bucket.size() - keep;
  bucket.truncate(keep);
  if (bucket.empty()) {
    bucket.Release(&bucket_pool_);
    table->erase(it);
  }
}

std::vector<EdgeRef> PatternOp::RetractForDeletion(int port,
                                                   const Sgt& tuple) {
  Binding b;
  if (!BindPort(port, tuple, &b)) return {};
  // 1. Emit negative tuples for every live output containing the deleted
  //    tuple, by replaying the join cascade without inserting.
  retracted_values_.clear();
  Level* port_level =
      port == 0 ? nullptr : &levels_[static_cast<std::size_t>(port - 1)];
  const Key port_key = port == 0 ? Key() : ExtractKey(*port_level, b);
  if (port == 0) {
    Cascade(0, b, Mode::kRetract);
  } else {
    auto it = port_level->left.find(port_key);
    if (it != port_level->left.end()) {
      for (const Binding& acc : it->second) {
        Binding merged = Merge(acc, b);
        Cascade(static_cast<std::size_t>(port), merged, Mode::kRetract);
      }
    }
  }

  // 2. Remove the tuple and every accumulated binding that embeds it.
  //    A binding embeds the deleted tuple iff it agrees with it on the
  //    tuple's variable positions (set semantics make that sufficient).
  auto matches = [&](const Binding& candidate) {
    for (std::size_t i = 0; i < num_vars_; ++i) {
      if (b.vals[i] != kInvalidVertex && candidate.vals[i] != b.vals[i]) {
        return false;
      }
    }
    return true;
  };
  // The port's own state: the value's bindings all sit under one key.
  if (port_level != nullptr) {
    if (port_level->store != nullptr) {
      port_level->store->RemoveValue(tuple.src, tuple.trg,
                                     port_level->store_label);
    } else {
      CompactBucket(&port_level->right, &port_level->right_entries, port_key,
                    matches);
    }
  }
  // Left tables: only the buckets the retract cascade visited, which hold
  // every binding embedding the deleted value, expired or not (DESIGN.md
  // §5, "PATTERN deletions", has the argument).
  std::sort(retract_keys_.begin(), retract_keys_.end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first < y.first
                                        : KeyLess(x.second, y.second);
            });
  retract_keys_.erase(std::unique(retract_keys_.begin(), retract_keys_.end()),
                      retract_keys_.end());
  for (const auto& [level, key] : retract_keys_) {
    Level& lv = levels_[level];
    CompactBucket(&lv.left, &lv.left_entries, key, matches);
  }
  retract_keys_.clear();

  // Sorted drain: the returned order is deterministic, so the sharded
  // executor's cross-shard union is reproducible.
  std::vector<EdgeRef> out(retracted_values_.begin(),
                           retracted_values_.end());
  std::sort(out.begin(), out.end());
  retracted_values_.clear();
  return out;
}

void PatternOp::ReassertRetracted(const std::vector<EdgeRef>& retracted,
                                  Timestamp now) {
  // Re-assert: an output value retracted (on this shard or, under sharded
  // execution, on a sibling shard) may still hold via a derivation in the
  // surviving local state. Replay the surviving port-0 bindings that can
  // still derive a retracted value and re-emit positives for the values.
  if (retracted.empty() || levels_.empty()) return;
  retracted_values_.clear();
  retracted_srcs_.clear();
  retracted_trgs_.clear();
  for (const EdgeRef& value : retracted) {
    // A sibling shard's retraction must not leave this shard's coalescer
    // suppressing the re-assertion (no-op for values this shard
    // retracted itself — the retract cascade already forgot them).
    out_coalescer_.Forget(value);
    retracted_values_.insert(value);
    retracted_srcs_.insert(value.src);
    retracted_trgs_.insert(value.trg);
  }
  reassert_time_ = now;
  // The level-0 buckets that can hold a candidate: the postings of the
  // retracted values of posting_var_, else every bucket.
  const Table& table = levels_[0].left;
  std::vector<const Key*> keys;
  if (posting_var_ < 0) {
    keys.reserve(table.size());
    for (const auto& [key, bucket] : table) {
      (void)bucket;
      keys.push_back(&key);
    }
  } else {
    if (!postings_built_) BuildPostings();
    for (VertexId v : posting_var_ == out_src_var_ ? retracted_srcs_
                                                   : retracted_trgs_) {
      const auto it = postings_.find(v);
      if (it == postings_.end()) continue;
      for (const Posting& p : it->second) keys.push_back(&p.key);
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const Key* x, const Key* y) { return KeyLess(*x, *y); });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const Key* x, const Key* y) { return *x == *y; }),
             keys.end());
  // Copy the candidates (kReassert re-inserts while iterating; Cascade
  // would cut the others anyway), ordered by join key, then bucket order,
  // so the emission order does not depend on hash-iteration order.
  std::vector<Binding> candidates;
  for (const Key* key : keys) {
    const auto it = table.find(*key);
    SGQ_DCHECK(it != table.end());
    for (const Binding& acc : it->second) {
      if (acc.iv.exp > now && MayReassert(acc)) candidates.push_back(acc);
    }
  }
  for (const Binding& candidate : candidates) {
    Cascade(0, candidate, Mode::kReassert);
  }
  retracted_values_.clear();
}

void PatternOp::BuildPostings() {
  postings_built_ = true;
  for (const auto& [key, bucket] : levels_[0].left) {
    for (const Binding& b : bucket) AddPosting(b, key);
  }
}

void PatternOp::AddPosting(const Binding& b, const Key& key) {
  auto [it, inserted] =
      postings_.try_emplace(b.vals[static_cast<std::size_t>(posting_var_)]);
  (void)inserted;
  PostingList& list = it->second;
  for (Posting& p : list) {
    if (p.key == key) {
      ++p.count;
      return;
    }
  }
  list.push_back(&bucket_pool_, Posting{key, 1});
}

void PatternOp::DropPosting(const Binding& b, const Key& key) {
  const auto it =
      postings_.find(b.vals[static_cast<std::size_t>(posting_var_)]);
  SGQ_DCHECK(it != postings_.end());
  PostingList& list = it->second;
  const std::size_t last = list.size() - 1;
  for (std::size_t i = 0; i <= last; ++i) {
    if (!(list[i].key == key)) continue;
    if (--list[i].count > 0) return;
    // Unordered list: the re-assert sorts the keys it gathers.
    if (i != last) list[i] = std::move(list[last]);
    list.truncate(last);
    if (list.empty()) {
      list.Release(&bucket_pool_);
      postings_.erase(it);
    }
    return;
  }
  SGQ_DCHECK(false);
}

void PatternOp::PurgeJoinState(Timestamp now) {
  binding_expiry_.DrainDue(now, [&](const BucketRef& ref) {
    Level& lv = levels_[static_cast<std::size_t>(ref.level)];
    // A stale hint (bucket gone) is a no-op.
    CompactBucket(ref.left ? &lv.left : &lv.right,
                  ref.left ? &lv.left_entries : &lv.right_entries, ref.key,
                  [&](const Binding& b) {
                    if (b.iv.exp <= now) return true;  // expired: drop
                    if (binding_expiry_.NeedsReAdd(b.iv.exp, now)) {
                      binding_expiry_.Add(b.iv.exp, ref);
                    }
                    return false;
                  });
  });
  for (Level& lv : levels_) {
    if (lv.store != nullptr) lv.store->PurgeExpired(now);
  }
}

void PatternOp::Purge(Timestamp now) {
  PurgeJoinState(now);
  out_coalescer_.PurgeBefore(now);
}

void PatternOp::MaybePurge(Timestamp now) {
  PurgeJoinState(now);
  if (WatermarkReached(out_coalescer_.NumKeys())) {
    out_coalescer_.PurgeBefore(now);
    RearmWatermark(out_coalescer_.NumKeys());
  }
}

bool PatternOp::PurgeDue(Timestamp now) const {
  if (binding_expiry_.AnyDue(now)) return true;
  for (const Level& lv : levels_) {
    if (lv.store != nullptr && lv.store->PurgeDue(now)) return true;
  }
  return WatermarkReached(out_coalescer_.NumKeys());
}

std::size_t PatternOp::StateSize() const {
  std::size_t n = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    n += lv.left_entries;
    n += lv.store != nullptr ? lv.store->NumEntries() : lv.right_entries;
  }
  return n;
}

std::size_t PatternOp::StateBytes() const {
  // Bucket overflow is pool-backed: count the pool's slabs once instead
  // of per-bucket capacities (inline bucket storage is part of the slot
  // array, covered by capacity_bytes).
  std::size_t n = out_coalescer_.ApproxBytes() +
                  binding_expiry_.ApproxBytes() +
                  bucket_pool_.reserved_bytes();
  auto table_bytes = [](const Table& table) {
    std::size_t bytes = table.capacity_bytes();
    for (const auto& [key, bucket] : table) {
      (void)bucket;
      bytes += key.overflow_bytes();
    }
    return bytes;
  };
  for (const Level& lv : levels_) {
    n += table_bytes(lv.left);
    n += lv.store != nullptr ? lv.store->StateBytes() : table_bytes(lv.right);
  }
  // Posting-list overflow is in bucket_pool_ (counted above).
  n += postings_.capacity_bytes();
  for (const auto& [value, list] : postings_) {
    (void)value;
    for (const Posting& p : list) n += p.key.overflow_bytes();
  }
  return n;
}

std::size_t PatternOp::num_store_backed_ports() const {
  std::size_t n = 0;
  for (const Level& lv : levels_) {
    if (lv.store != nullptr) ++n;
  }
  return n;
}

void PatternOp::SerializeTable(const Table& table, std::string* out) {
  // Keys sorted (deterministic checkpoint bytes); bucket contents verbatim
  // — inserts append and CompactBucket compacts order-preservingly, so
  // restoring bindings in stored order reproduces probe order exactly.
  std::vector<Key> keys;
  keys.reserve(table.size());
  for (const auto& [key, bucket] : table) {
    (void)bucket;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), KeyLess);
  PutU64(out, keys.size());
  for (const Key& key : keys) {
    const auto it = table.find(key);
    PutPatternKey(out, key);
    const Bucket& bucket = it->second;
    PutU32(out, static_cast<std::uint32_t>(bucket.size()));
    for (const Binding& b : bucket) {
      PutU32(out, static_cast<std::uint32_t>(b.vals.size()));
      for (VertexId v : b.vals) PutU64(out, v);
      PutI64(out, b.iv.ts);
      PutI64(out, b.iv.exp);
    }
  }
}

Status PatternOp::DeserializeTable(Table* table, std::size_t key_len,
                                   ByteReader* in) {
  const std::uint64_t num_keys = in->U64();
  for (std::uint64_t k = 0; k < num_keys && in->ok(); ++k) {
    Key key = GetPatternKey(in);
    if (in->ok() && key.size() != key_len) {
      return in->Fail("PATTERN join key length does not match its level");
    }
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    auto [it, inserted] = table->try_emplace(std::move(key));
    if (!inserted) return in->Fail("duplicate join key");
    Bucket& bucket = it->second;
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      Binding b;
      const std::uint32_t nvals = in->U32();
      if (in->ok() && nvals != num_vars_) {
        return in->Fail("PATTERN binding arity does not match the pattern");
      }
      for (std::uint32_t v = 0; v < nvals && in->ok(); ++v) {
        b.vals.push_back(in->U64());
      }
      b.iv.ts = in->I64();
      b.iv.exp = in->I64();
      bucket.push_back(&bucket_pool_, std::move(b));
    }
  }
  return in->status();
}

void PatternOp::SerializeState(std::string* out) const {
  SGQ_CHECK(retract_keys_.empty());
  PutU32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const Level& lv : levels_) {
    SerializeTable(lv.left, out);
    PutU64(out, lv.left_entries);
    // Store-backed right sides live in WindowStore partitions checkpointed
    // by the registry; only the flag round-trips (topology verification).
    PutU8(out, lv.store != nullptr ? 1 : 0);
    if (lv.store == nullptr) {
      SerializeTable(lv.right, out);
      PutU64(out, lv.right_entries);
    }
  }
  PutU64(out, binding_expiry_.num_hints());
  binding_expiry_.VisitEntries([&](Timestamp exp, const BucketRef& ref) {
    PutI64(out, exp);
    PutU32(out, static_cast<std::uint32_t>(ref.level));
    PutU8(out, ref.left ? 1 : 0);
    PutPatternKey(out, ref.key);
  });
  out_coalescer_.SerializeState(out);
}

Status PatternOp::DeserializeState(ByteReader* in) {
  // Only the *private* state must be empty: store-backed ports view the
  // shared WindowStore, whose partitions restore before the ops section.
  std::size_t private_entries = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    private_entries += lv.left_entries;
    private_entries += lv.store != nullptr ? 0 : lv.right_entries;
  }
  if (private_entries != 0) {
    return in->Fail("PATTERN operator not empty before restore");
  }
  // The postings of an empty level-0 table are empty; mark them unbuilt
  // so the next re-assert builds them from the restored table.
  SGQ_DCHECK(postings_.empty());
  postings_built_ = false;
  const std::uint32_t num_levels = in->U32();
  if (in->ok() && num_levels != levels_.size()) {
    return in->Fail("PATTERN level count mismatch (checkpoint was taken "
                    "with a different plan topology)");
  }
  for (Level& lv : levels_) {
    SGQ_RETURN_NOT_OK(DeserializeTable(&lv.left, lv.key_vars.size(), in));
    lv.left_entries = in->U64();
    const bool store_backed = in->U8() != 0;
    if (in->ok() && store_backed != (lv.store != nullptr)) {
      return in->Fail("PATTERN store-backed flag mismatch (checkpoint was "
                      "taken with a different plan topology)");
    }
    if (lv.store == nullptr) {
      SGQ_RETURN_NOT_OK(
          DeserializeTable(&lv.right, lv.key_vars.size(), in));
      lv.right_entries = in->U64();
    }
  }
  const std::uint64_t num_hints = in->U64();
  for (std::uint64_t i = 0; i < num_hints && in->ok(); ++i) {
    const Timestamp exp = in->I64();
    BucketRef ref;
    ref.level = static_cast<int>(in->U32());
    ref.left = in->U8() != 0;
    ref.key = GetPatternKey(in);
    if (in->ok() &&
        static_cast<std::size_t>(ref.level) >= levels_.size()) {
      return in->Fail("expiry hint references a level out of range");
    }
    if (in->ok() &&
        ref.key.size() !=
            levels_[static_cast<std::size_t>(ref.level)].key_vars.size()) {
      return in->Fail("expiry hint key length does not match its level");
    }
    binding_expiry_.Add(exp, std::move(ref));
  }
  return out_coalescer_.DeserializeState(in);
}

}  // namespace sgq
