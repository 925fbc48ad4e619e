/**
 * @file
 * Intra-procedural control-flow graphs over AIR method bodies.
 */

#ifndef SIERRA_ANALYSIS_CFG_HH
#define SIERRA_ANALYSIS_CFG_HH

#include <span>
#include <string>
#include <vector>

#include "air/method.hh"

namespace sierra::analysis {

/** A maximal straight-line instruction sequence. */
struct BasicBlock {
    int id{-1};
    int first{0}; //!< index of the first instruction
    int last{0};  //!< index of the last instruction (inclusive)
    //! successor / predecessor block ids (views into the CFG, which
    //! owns them; predecessors ascend)
    std::span<const int> succs;
    std::span<const int> preds;
};

/**
 * The CFG of one method.
 *
 * Block 0 is the entry block; a synthetic exit block (with no
 * instructions) collects all returns/throws so dominance queries have a
 * single sink.
 */
class Cfg
{
  public:
    explicit Cfg(const air::Method &method);
    // Blocks view storage of this object: not copyable (moves keep
    // the storage).
    Cfg(const Cfg &) = delete;
    Cfg &operator=(const Cfg &) = delete;
    Cfg(Cfg &&) = default;

    const air::Method &method() const { return _method; }

    const std::vector<BasicBlock> &blocks() const { return _blocks; }
    int numBlocks() const { return static_cast<int>(_blocks.size()); }

    int entryBlock() const { return 0; }
    int exitBlock() const { return _exitBlock; }

    /** Block containing the given instruction index. */
    int blockOf(int instr_idx) const { return _blockOfInstr[instr_idx]; }

    /** True if some branch of the method jumps to the instruction. */
    bool isJumpTarget(int instr_idx) const { return _jumpTarget[instr_idx]; }

    /** Instruction-level successor indices of an instruction. */
    std::vector<int> instrSuccs(int instr_idx) const;
    /** Instruction-level predecessor indices of an instruction: the
     *  fall-through index inside a block, else the last instruction of
     *  each predecessor block (in `preds` order). A view into storage
     *  built with the CFG, so the call never allocates. */
    std::span<const int>
    instrPreds(int instr_idx) const
    {
        const int start = _predStart[instr_idx];
        return std::span<const int>(_predInstrs)
            .subspan(start, _predStart[instr_idx + 1] - start);
    }

    /** Debug rendering: one line per block with ranges and edges. */
    std::string toString() const;

  private:
    const air::Method &_method;
    std::vector<BasicBlock> _blocks;
    //! every block's successors, then every block's predecessors
    std::vector<int> _edges;
    std::vector<int> _blockOfInstr;
    std::vector<char> _jumpTarget;
    //! instrPreds(i) is _predInstrs[_predStart[i] .. _predStart[i+1])
    std::vector<int> _predStart;
    std::vector<int> _predInstrs;
    int _exitBlock{-1};
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CFG_HH
