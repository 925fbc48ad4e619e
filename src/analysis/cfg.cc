#include "cfg.hh"

#include <algorithm>
#include <sstream>

#include "air/logging.hh"

namespace sierra::analysis {

using air::Instruction;
using air::Opcode;

namespace {

/** Instruction-level fallthrough/branch successors (no exit block),
 *  written to `out`; returns how many. */
int
rawSuccs(const air::Method &m, int idx, int out[2])
{
    const Instruction &instr = m.instr(idx);
    int count = 0;
    switch (instr.op) {
      case Opcode::Goto:
        out[count++] = instr.target;
        break;
      case Opcode::If:
      case Opcode::IfZ:
        if (idx + 1 < m.numInstrs())
            out[count++] = idx + 1;
        if (instr.target != idx + 1)
            out[count++] = instr.target;
        break;
      case Opcode::Return:
      case Opcode::ReturnVoid:
      case Opcode::Throw:
        break;
      default:
        if (idx + 1 < m.numInstrs())
            out[count++] = idx + 1;
        break;
    }
    return count;
}

} // namespace

Cfg::Cfg(const air::Method &method) : _method(method)
{
    const int n = method.numInstrs();
    SIERRA_ASSERT(n > 0, "CFG over empty method ",
                  method.qualifiedName());

    // Identify leaders: instruction 0, branch targets, and fallthroughs
    // after branches/terminators. `_blockOfInstr` marks them first.
    _jumpTarget.assign(n, 0);
    _blockOfInstr.assign(n, -1);
    _blockOfInstr[0] = 0;
    for (int i = 0; i < n; ++i) {
        const Instruction &instr = method.instr(i);
        if (instr.isBranch()) {
            _blockOfInstr[instr.target] = 0;
            _jumpTarget[instr.target] = 1;
        }
        if ((instr.isBranch() || instr.isTerminator()) && i + 1 < n)
            _blockOfInstr[i + 1] = 0;
    }
    int nblocks = 0;
    for (int i = 0; i < n; ++i)
        nblocks += _blockOfInstr[i] == 0 ? 1 : 0;

    _blocks.reserve(static_cast<size_t>(nblocks) + 1);
    for (int i = 0; i < n; ++i) {
        if (_blockOfInstr[i] == 0) {
            BasicBlock block;
            block.id = static_cast<int>(_blocks.size());
            block.first = i;
            _blocks.push_back(block);
        }
        _blockOfInstr[i] = static_cast<int>(_blocks.size()) - 1;
        _blocks.back().last = i;
    }

    // Synthetic exit block.
    _exitBlock = static_cast<int>(_blocks.size());
    BasicBlock exit_block;
    exit_block.id = _exitBlock;
    exit_block.first = n; // empty: first > last
    exit_block.last = n - 1;
    _blocks.push_back(exit_block);

    // Block-level edges from the last instruction of each block, in
    // one array: every block's successors, then every block's
    // predecessors (ascending block id). Blocks view their slices.
    const size_t nb = _blocks.size();
    std::vector<int> succ_count(nb, 0);
    std::vector<int> pred_count(nb, 0);
    _edges.reserve(4 * nb);
    for (size_t b = 0; b + 1 < nb; ++b) {
        const BasicBlock &block = _blocks[b];
        const Instruction &last = method.instr(block.last);
        int succ_instrs[2];
        const int count = rawSuccs(method, block.last, succ_instrs);
        const size_t first = _edges.size();
        if (last.op == Opcode::Return || last.op == Opcode::ReturnVoid ||
            last.op == Opcode::Throw || count == 0) {
            // A terminator, or falling off the end of the body.
            _edges.push_back(_exitBlock);
        }
        for (int k = 0; k < count; ++k) {
            int sb = _blockOfInstr[succ_instrs[k]];
            if (std::find(_edges.begin() + static_cast<std::ptrdiff_t>(first),
                          _edges.end(), sb) == _edges.end()) {
                _edges.push_back(sb);
            }
        }
        succ_count[b] = static_cast<int>(_edges.size() - first);
    }
    const size_t nsuccs = _edges.size();
    for (size_t e = 0; e < nsuccs; ++e)
        ++pred_count[static_cast<size_t>(_edges[e])];
    std::vector<int> pred_at(nb, 0);
    for (size_t b = 0, at = nsuccs; b < nb; ++b) {
        pred_at[b] = static_cast<int>(at);
        at += static_cast<size_t>(pred_count[b]);
    }
    _edges.resize(2 * nsuccs);
    for (size_t b = 0, e = 0; b < nb; ++b) {
        for (int k = 0; k < succ_count[b]; ++k, ++e)
            _edges[static_cast<size_t>(pred_at[_edges[e]]++)] =
                static_cast<int>(b);
    }
    for (size_t b = 0, e = 0; b < nb; ++b) {
        BasicBlock &block = _blocks[b];
        block.succs = std::span<const int>(_edges).subspan(
            e, static_cast<size_t>(succ_count[b]));
        e += static_cast<size_t>(succ_count[b]);
        const size_t pend = static_cast<size_t>(pred_at[b]);
        block.preds = std::span<const int>(_edges).subspan(
            pend - static_cast<size_t>(pred_count[b]),
            static_cast<size_t>(pred_count[b]));
    }

    _predStart.reserve(n + 1);
    for (int i = 0; i < n; ++i) {
        _predStart.push_back(static_cast<int>(_predInstrs.size()));
        const BasicBlock &block = _blocks[_blockOfInstr[i]];
        if (i > block.first) {
            _predInstrs.push_back(i - 1);
            continue;
        }
        for (int pb : block.preds)
            _predInstrs.push_back(_blocks[pb].last);
    }
    _predStart.push_back(static_cast<int>(_predInstrs.size()));
}

std::vector<int>
Cfg::instrSuccs(int instr_idx) const
{
    int out[2];
    const int count = rawSuccs(_method, instr_idx, out);
    return std::vector<int>(out, out + count);
}

std::string
Cfg::toString() const
{
    std::ostringstream os;
    for (const auto &block : _blocks) {
        os << "B" << block.id;
        if (block.id == _exitBlock)
            os << " (exit)";
        else
            os << " [" << block.first << ".." << block.last << "]";
        os << " ->";
        for (int s : block.succs)
            os << " B" << s;
        os << "\n";
    }
    return os.str();
}

} // namespace sierra::analysis
