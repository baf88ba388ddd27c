/**
 * @file
 * vDNN baseline (Rhu et al., MICRO 2016): static layer-wise offloading.
 *
 * Forward: after the last forward consumer of a designated layer-input
 * feature map retires, the tensor is offloaded to host memory with a
 * *coupled* swap-out — the next layer may not start until the transfer
 * completes (the synchronization Figure 1 profiles). Backward: when an
 * offloaded tensor's backward access occurs, the policy prefetches the
 * next offloaded tensor (one-ahead static prefetching); the first one is
 * always fetched on demand.
 *
 * Mode::ConvOnly offloads only convolution-layer inputs (vDNN_conv);
 * Mode::All offloads every layer input (vDNN_all, the memory-maximal
 * configuration used for the Table 2 batch-size comparison).
 *
 * vDNN as published is purely static: it has no reactive path, so when
 * the static offload plan is insufficient the allocation failure is an
 * OOM.
 */

#ifndef CAPU_POLICY_VDNN_POLICY_HH
#define CAPU_POLICY_VDNN_POLICY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/memory_policy.hh"

namespace capu
{

class VdnnPolicy : public MemoryPolicy
{
  public:
    enum class Mode
    {
        ConvOnly, ///< vDNN_conv: offload inputs of conv layers only
        All,      ///< vDNN_all: offload every layer input
    };

    explicit VdnnPolicy(Mode mode = Mode::All) : mode_(mode) {}

    std::string name() const override;
    void attach(const Graph &graph, const std::vector<OpId> &schedule,
                const ExecConfig &config) override;
    void beginIteration(ExecContext &ctx) override;
    void onAccess(ExecContext &ctx, const AccessEvent &event) override;
    void afterOp(ExecContext &ctx, OpId op, Tick op_end) override;
    void endIteration(ExecContext &ctx, const IterationStats &stats) override;

    /** All state is value-semantic: a member-wise copy is a deep copy. */
    std::unique_ptr<MemoryPolicy>
    clone() const override
    {
        return std::make_unique<VdnnPolicy>(*this);
    }

    /** Offload targets in forward order (exposed for tests). */
    const std::vector<TensorId> &targets() const { return targets_; }

    using AuditFn = std::function<void(const VdnnPolicy &, ExecContext &)>;

    /**
     * Lint hook (analysis/lint_hooks): `observer` sees every access of
     * iteration 0, `audit` fires at the end of iteration 0 with the
     * static offload decision available via targets().
     */
    void
    setAudit(AccessObserverFn observer, AuditFn audit)
    {
        observer_ = std::move(observer);
        audit_ = std::move(audit);
    }

  private:
    Mode mode_;
    std::vector<TensorId> targets_; ///< forward order
    std::unordered_map<TensorId, std::size_t> targetIndex_;
    /** op -> targets whose last forward use is this op. */
    std::unordered_map<OpId, std::vector<TensorId>> offloadAfter_;
    std::vector<bool> isForwardOp_;
    AccessObserverFn observer_;
    AuditFn audit_;
};

std::unique_ptr<MemoryPolicy>
makeVdnnPolicy(VdnnPolicy::Mode mode = VdnnPolicy::Mode::All);

} // namespace capu

#endif // CAPU_POLICY_VDNN_POLICY_HH
