// GRU recurrent layer with full backpropagation-through-time — the
// measurement generator of the DoppelGANger-style time-series GAN.
#pragma once

#include <vector>

#include "ml/kernels.hpp"
#include "ml/layers.hpp"

namespace netshare::ml {

// A GRU conditioned on a step-invariant input (DESIGN.md §5): step t reads
// [x_t | cond], x_t of step_dim columns, cond of cond_dim columns the same
// at every step. Each Wx is (step_dim + cond_dim) × H, step rows first. A
// batch projects cond once per gate, P_g = cond·Wx_g[cond rows], which
// seeds every step's fused gate; cond_dim = 0 is the plain GRU.
//
// Sequences are std::vector<Matrix> of length T; each element is
// [batch, step_dim]. The hidden state starts at zero.
//
// Each pass is implemented once, as its row form (DESIGN.md §5):
// forward() and backward() are the prepare calls plus one row call on every
// row (and, for backward(), every parameter task on its whole parameter),
// and step_into() is step_rows_into() on every row. forward()/backward()
// return references to member buffers, valid until the next pass (see
// ml/layers.hpp). The per-step caches and every backward scratch are
// persistent members reused across calls, so with stable (T, batch) shapes
// the whole BPTT pass performs no heap allocation after the first call.
class Gru {
 public:
  // Caller-owned scratch of one forward-only step: gate activations and
  // r ⊙ h.
  struct StepScratch {
    Matrix z, r, c, rh;
  };
  // Per gate, one value per batch row and hidden unit: the cond projections
  // P_g that seed the gates, or backward's gate gradients summed over t.
  struct GateRows {
    Matrix z, r, c;
  };

  Gru(std::size_t step_dim, std::size_t cond_dim, std::size_t hidden_dim,
      Rng& rng);

  // Runs the full sequence on cond (batch × cond_dim); returns hidden states
  // h_1..h_T and caches everything backward() needs.
  const std::vector<Matrix>& forward(const std::vector<Matrix>& xs,
                                     const Matrix& cond);

  // BPTT. grad_hs[t] is dLoss/dh_t (zero matrices allowed). Accumulates
  // parameter gradients and returns dLoss/dcond; the step inputs get no
  // gradient. Consumes the forward caches (each step's gate gradients are
  // written over its dead gate activations), so every backward() needs a
  // fresh forward(). Runs on the calling thread; a caller that wants width
  // runs the row form below as tasks.
  const Matrix& backward(const std::vector<Matrix>& grad_hs);

  // The row form of forward() and backward() (DESIGN.md §5): every cache
  // stays a whole-batch matrix and a slice writes only its rows, so slices
  // of disjoint row ranges may run on several threads at once, with the
  // values of forward()/backward() bitwise.
  //   prepare_forward(T, batch)       shape the caches (one thread);
  //   forward_rows(xs, cond, r0, r1)  the cond projection and all T steps
  //                                   for rows [r0, r1); hidden() holds
  //                                   h_1..h_T once every slice has run;
  //   prepare_backward()              pack Wh and Wx's cond rows, shape the
  //                                   recurrence scratch (one thread);
  //   backward_rows(gh, r0, r1)       the dh recurrence for rows [r0, r1),
  //                                   the gate gradients summed over t, and
  //                                   those rows of cond_grad();
  //   grad_task(k, r0, r1)            k < kGradTasks: rows [r0, r1) of
  //                                   parameters()[k]'s gradient, over the
  //                                   whole batch, after every slice.
  void prepare_forward(std::size_t T, std::size_t batch);
  void forward_rows(const std::vector<Matrix>& xs, const Matrix& cond,
                    std::size_t r0, std::size_t r1);
  const std::vector<Matrix>& hidden() const { return hs_; }
  void prepare_backward();
  void backward_rows(const std::vector<Matrix>& grad_hs, std::size_t r0,
                     std::size_t r1);
  const Matrix& cond_grad() const { return cond_grad_; }
  static constexpr std::size_t kGradTasks = 9;
  void grad_task(std::size_t k, std::size_t r0, std::size_t r1);

  // A batch's cond projections for the forward-only steps (forward_rows'
  // kernel): p shaped and filled, or rows [r0, r1) of a p already shaped.
  void project_cond_into(const Matrix& cond, GateRows& p) const;
  void project_cond_rows(const Matrix& cond, GateRows& p, std::size_t r0,
                         std::size_t r1) const;
  // Forward-only single step: h_out = GRU(x, h_prev) seeded with p's rows,
  // through the step kernel forward() runs, so a step's output row is
  // bitwise identical to the corresponding row of a full forward() unroll.
  // Shapes h_out and `s` to the batch, then runs every row. Reads only the
  // weights and writes only h_out and `s`, so it may run on several threads
  // at once (distinct scratch) and beside a training forward()/backward()
  // pair. `h_out` must not alias `h_prev`; zero-allocation once the scratch
  // capacities are warm.
  void step_into(const Matrix& x, const GateRows& p, const Matrix& h_prev,
                 Matrix& h_out, StepScratch& s) const;
  // Rows [r0, r1) of step_into, into h_out and scratch already shaped to
  // the whole batch (each x.rows() × hidden_dim()).
  void step_rows_into(const Matrix& x, const GateRows& p,
                      const Matrix& h_prev, Matrix& h_out, StepScratch& s,
                      std::size_t r0, std::size_t r1) const;

  std::vector<Parameter*> parameters();
  void zero_grad();

  std::size_t step_dim() const { return step_dim_; }
  std::size_t cond_dim() const { return cond_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

 private:
  // z, r and c hold the gate activations after forward() and the matching
  // pre-activation gradients (daz, dar, dac) after backward()'s recurrence.
  struct StepCache {
    Matrix x, h_prev, z, r, c;
    Matrix rh;  // r ⊙ h_prev, reused by backward's candidate-path grads
  };

  // One step for rows [r0, r1) into whole-batch buffers: the three seeded
  // fused gates, r ⊙ h_prev and the state update.
  void step_rows(const Matrix& x, const GateRows& p, const Matrix& h_prev,
                 Matrix& h_out, Matrix& z, Matrix& r, Matrix& c, Matrix& rh,
                 std::size_t r0, std::size_t r1) const;

  std::size_t step_dim_;
  std::size_t cond_dim_;
  std::size_t hidden_dim_;
  // Update gate z, reset gate r, candidate c.
  Parameter wxz_, whz_, bz_;
  Parameter wxr_, whr_, br_;
  Parameter wxc_, whc_, bc_;
  // Persistent step caches; steps_ tracks the live prefix (cache_ may be
  // longer than the last sequence).
  std::vector<StepCache> cache_;
  std::size_t steps_ = 0;
  // Forward buffers.
  std::vector<Matrix> hs_;  // returned hidden states h_1..h_T
  Matrix cond_;             // the batch's cond rows
  GateRows proj_;           // their projections P_g
  // Backward buffers: the recurrence scratch (dh ping-pongs between dhb_[0]
  // and dhb_[1] by step parity, so no slice swaps a shared matrix), the gate
  // gradients summed over t, the packed transposes of Wh and of Wx's cond
  // rows, one bias-sum buffer per bias task.
  Matrix dhb_[2], drh_, mm_;
  GateRows sums_;
  Matrix cond_grad_, cond_mm_;
  kernels::PackedTransB whz_t_, whr_t_, whc_t_, wxz_t_, wxr_t_, wxc_t_;
  std::vector<Matrix> bias_sums_;
};

}  // namespace netshare::ml
