#include <algorithm>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "expr/eval.h"

namespace rfv {

// ---------------------------------------------------------------------------
// The row-at-a-time join loop
// ---------------------------------------------------------------------------

Status RowJoinOp::OpenLeft() {
  left_vp_ = nullptr;
  left_slot_ = 0;
  left_valid_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  left_width_ = left_->schema().NumColumns();
  return left_->Open();
}

Status RowJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  const size_t width = schema_.NumColumns();
  // Every lane starts NULL: a NULL-padded row writes only its left
  // cells.
  out_vp_.Reset(width, kVectorSize);
  size_t filled = 0;
  while (filled < kVectorSize) {
    if (!left_valid_) {
      if (left_vp_ == nullptr || left_slot_ >= left_vp_->NumSelected()) {
        RFV_RETURN_IF_ERROR(left_->NextVector(&left_vp_, eof));
        left_slot_ = 0;
        if (*eof) break;
      }
      left_vp_->MaterializeRow(left_vp_->sel()[left_slot_++], &left_row_);
      RFV_RETURN_IF_ERROR(FindCandidates(left_row_));
      if (joined_.size() != width) joined_ = Row(std::vector<Value>(width));
      for (size_t c = 0; c < left_width_; ++c) joined_[c] = left_row_[c];
      candidate_pos_ = 0;
      left_matched_ = false;
      left_valid_ = true;
    }
    while (candidate_pos_ < candidates_.size() && filled < kVectorSize) {
      const Row& right = *candidates_[candidate_pos_++];
      for (size_t c = 0; c < right.size(); ++c) {
        joined_[left_width_ + c] = right[c];
      }
      bool match = true;
      if (residual_ != nullptr) {
        RFV_ASSIGN_OR_RETURN(match,
                             Evaluator::EvalPredicate(*residual_, joined_));
      }
      if (match) {
        left_matched_ = true;
        out_vp_.WriteRow(filled++, joined_);
      }
    }
    // A full output leaves the rest of this left row's candidates to
    // the next vector. An unmatched row wrote no lane, so its padding
    // always fits.
    if (candidate_pos_ < candidates_.size()) break;
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      out_vp_.WriteRow(filled++, left_row_);
    }
    left_valid_ = false;
  }
  out_vp_.sel().Truncate(filled);
  *out = &out_vp_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

Status NestedLoopJoinOp::OpenImpl() {
  right_rows_.clear();
  RFV_RETURN_IF_ERROR(OpenLeft());
  RFV_RETURN_IF_ERROR(right_->Open());
  RFV_RETURN_IF_ERROR(DrainChild(right_.get(), &right_rows_));
  NoteBufferedRows(right_rows_.size());
  for (const Row& row : right_rows_) candidates_.push_back(&row);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

Status IndexNestedLoopJoinOp::OpenImpl() {
  RFV_RETURN_IF_ERROR(OpenLeft());
  // Same pin order as TableScanOp: reader epoch first, then the
  // snapshot whose rows and index image the probes read.
  epoch_guard_ = EpochGuard();
  snap_ = right_table_->PinSnapshot();
  index_ = snap_->IndexOnColumn(spec_.right_column);
  if (index_ == nullptr) {
    return Status::Internal("index disappeared for index nested-loop join");
  }
  return Status::OK();
}

void IndexNestedLoopJoinOp::ProbeBand(const BandSpec& spec,
                                      const ResolvedBand& band) {
  if (band.empty) return;
  // One range probe per band, a point being the range [k, k]. Int64
  // bounds on both sides also keep NULL keys out of an unbounded side:
  // NULL sorts below every number in the index. A stride band keeps the
  // keys of its residue class, read from the index entries rather than
  // from the table rows.
  const int64_t w = spec.modulus;
  for (const OrderedIndex::Entry& entry : index_->EntriesInRange(
           Value::Int(band.lo), Value::Int(band.hi))) {
    if (w > 1 && FlooredMod(entry.key.AsInt(), w) != band.residue) continue;
    row_ids_.push_back(entry.row_id);
  }
}

Status IndexNestedLoopJoinOp::FindCandidates(const Row& left_row) {
  row_ids_.clear();
  for (const BandSpec& spec : spec_.bands) {
    ResolvedBand band;
    RFV_RETURN_IF_ERROR(ResolveBand(spec, left_row, &band));
    ProbeBand(spec, band);
  }
  if (spec_.bands.size() > 1) {
    // Overlapping bands (OR branches, IN candidates) may hit the same
    // row; a join predicate match is boolean, so deduplicate.
    std::sort(row_ids_.begin(), row_ids_.end());
    row_ids_.erase(std::unique(row_ids_.begin(), row_ids_.end()),
                   row_ids_.end());
  }
  candidates_.clear();
  for (const size_t id : row_ids_) candidates_.push_back(&snap_->row(id));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

Counter* HashBuildRowsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_hash_build_rows_total", {},
      "Rows inserted into hash join build tables");
  return c;
}

Counter* HashProbeVectorsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_exec_hash_probe_vectors_total", {},
      "Probe-side vectors bulk-hashed by vectorized hash joins");
  return c;
}

}  // namespace

Status HashJoinOp::OpenImpl() {
  left_valid_ = false;
  probe_vp_ = nullptr;
  probe_lane_pos_ = 0;
  candidates_.clear();
  candidate_pos_ = 0;
  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();
  // Collect the build side into columnar lanes: the gather source for
  // output emission and the input of the key evaluation.
  build_vp_.Reset(right_width_, 0);
  VectorProjection* vp = nullptr;
  bool eof = false;
  while (true) {
    RFV_RETURN_IF_ERROR(right_->NextVector(&vp, &eof));
    if (eof) break;
    build_vp_.AppendRows(*vp, 0, vp->NumSelected());
  }
  const size_t n = build_vp_.num_rows();

  // Evaluate all key expressions column-at-a-time, then bulk-hash the
  // whole key vector set in one kernel pass.
  build_key_vecs_.resize(right_keys_.size());
  std::vector<const Vector*> key_ptrs(right_keys_.size());
  for (size_t j = 0; j < right_keys_.size(); ++j) {
    RFV_RETURN_IF_ERROR(VectorEvaluator::Eval(
        *right_keys_[j], build_vp_, build_vp_.sel(), &build_key_vecs_[j]));
    key_ptrs[j] = &build_key_vecs_[j];
  }
  HashVectorColumns(key_ptrs, build_vp_.sel(), n, &build_hashes_);

  // Single allocation pass for the bucket-chain table: heads_ sized to
  // the next power of two ≥ 2n (load factor ≤ 0.5), chain_next_ one
  // slot per build row. Inserting in REVERSE row order with head
  // insertion makes every chain walk in ascending build-row order, so a
  // probe row's matches come out in build-side input order.
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  bucket_mask_ = cap - 1;
  heads_.assign(cap, kChainEnd);
  chain_next_.assign(n, kChainEnd);
  size_t inserted = 0;
  for (size_t i = n; i-- > 0;) {
    bool has_null = false;
    for (const Vector& kv : build_key_vecs_) {
      if (kv.is_null(i)) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;  // NULL keys never equi-match
    const size_t b = static_cast<size_t>(build_hashes_[i] & bucket_mask_);
    chain_next_[i] = heads_[b];
    heads_[b] = static_cast<uint32_t>(i);
    ++inserted;
  }
  HashBuildRowsCounter()->Increment(static_cast<int64_t>(inserted));
  NoteBufferedRows(inserted);
  return Status::OK();
}

Status HashJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  const size_t left_width = left_->schema().NumColumns();
  out_vp_.Reset(left_width + right_width_, vector_capacity_);
  size_t filled = 0;

  while (filled < vector_capacity_) {
    if (!left_valid_) {
      // Advance to the next probe lane, pulling and bulk-hashing a fresh
      // probe vector when the current one is used up.
      if (probe_vp_ == nullptr || probe_lane_pos_ >= probe_vp_->NumSelected()) {
        RFV_RETURN_IF_ERROR(left_->NextVector(&probe_vp_, eof));
        probe_lane_pos_ = 0;
        if (*eof) break;
        probe_key_vecs_.resize(left_keys_.size());
        std::vector<const Vector*> key_ptrs(left_keys_.size());
        for (size_t j = 0; j < left_keys_.size(); ++j) {
          RFV_RETURN_IF_ERROR(
              VectorEvaluator::Eval(*left_keys_[j], *probe_vp_,
                                    probe_vp_->sel(), &probe_key_vecs_[j]));
          key_ptrs[j] = &probe_key_vecs_[j];
        }
        HashVectorColumns(key_ptrs, probe_vp_->sel(), probe_vp_->num_rows(),
                          &probe_hashes_);
        HashProbeVectorsCounter()->Increment();
      }
      current_lane_ = probe_vp_->sel()[probe_lane_pos_++];
      // Chase this lane's bucket chain: full-hash pre-check, then the
      // typed cell comparison (Value::Compare semantics). The chain is
      // in ascending build-row order by construction.
      candidates_.clear();
      candidate_pos_ = 0;
      bool has_null = false;
      for (const Vector& kv : probe_key_vecs_) {
        if (kv.is_null(current_lane_)) {
          has_null = true;
          break;
        }
      }
      if (!has_null) {
        const uint64_t h = probe_hashes_[current_lane_];
        for (uint32_t e = heads_[static_cast<size_t>(h & bucket_mask_)];
             e != kChainEnd; e = chain_next_[e]) {
          if (build_hashes_[e] != h) continue;
          bool eq = true;
          for (size_t j = 0; j < probe_key_vecs_.size(); ++j) {
            if (!VectorCellsEqual(probe_key_vecs_[j], current_lane_,
                                  build_key_vecs_[j], e)) {
              eq = false;
              break;
            }
          }
          if (eq) candidates_.push_back(e);
        }
      }
      if (residual_ != nullptr && !candidates_.empty()) {
        RFV_RETURN_IF_ERROR(FilterJoinCandidates(*residual_, *probe_vp_,
                                                 current_lane_, build_vp_,
                                                 &residual_scratch_,
                                                 &candidates_));
      }
      left_matched_ = !candidates_.empty();
      left_valid_ = true;
    }
    if (candidate_pos_ < candidates_.size()) {
      const size_t run = std::min(vector_capacity_ - filled,
                                  candidates_.size() - candidate_pos_);
      GatherJoinRun(*probe_vp_, current_lane_, build_vp_, candidates_,
                    candidate_pos_, run, filled, &out_vp_);
      candidate_pos_ += run;
      filled += run;
      if (candidate_pos_ >= candidates_.size()) left_valid_ = false;
      continue;
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      GatherNullPaddedRow(*probe_vp_, current_lane_, right_width_, filled,
                          &out_vp_);
      ++filled;
    }
    left_valid_ = false;
  }

  out_vp_.sel().Truncate(filled);
  *out = &out_vp_;
  return Status::OK();
}

}  // namespace rfv
