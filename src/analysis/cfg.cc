#include "cfg.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "air/logging.hh"

namespace sierra::analysis {

using air::Instruction;
using air::Opcode;

namespace {

/** Instruction-level fallthrough/branch successors (no exit block). */
std::vector<int>
rawSuccs(const air::Method &m, int idx)
{
    const Instruction &instr = m.instr(idx);
    std::vector<int> out;
    switch (instr.op) {
      case Opcode::Goto:
        out.push_back(instr.target);
        break;
      case Opcode::If:
      case Opcode::IfZ:
        if (idx + 1 < m.numInstrs())
            out.push_back(idx + 1);
        if (instr.target != idx + 1)
            out.push_back(instr.target);
        break;
      case Opcode::Return:
      case Opcode::ReturnVoid:
      case Opcode::Throw:
        break;
      default:
        if (idx + 1 < m.numInstrs())
            out.push_back(idx + 1);
        break;
    }
    return out;
}

} // namespace

Cfg::Cfg(const air::Method &method) : _method(method)
{
    const int n = method.numInstrs();
    SIERRA_ASSERT(n > 0, "CFG over empty method ",
                  method.qualifiedName());

    // Identify leaders: instruction 0, branch targets, and fallthroughs
    // after branches/terminators.
    std::set<int> leaders{0};
    _jumpTarget.assign(n, 0);
    for (int i = 0; i < n; ++i) {
        const Instruction &instr = method.instr(i);
        if (instr.isBranch()) {
            leaders.insert(instr.target);
            _jumpTarget[instr.target] = 1;
        }
        if ((instr.isBranch() || instr.isTerminator()) && i + 1 < n)
            leaders.insert(i + 1);
    }

    _blockOfInstr.assign(n, -1);
    std::vector<int> leader_list(leaders.begin(), leaders.end());
    for (size_t b = 0; b < leader_list.size(); ++b) {
        BasicBlock block;
        block.id = static_cast<int>(b);
        block.first = leader_list[b];
        block.last = (b + 1 < leader_list.size() ? leader_list[b + 1] - 1
                                                 : n - 1);
        for (int i = block.first; i <= block.last; ++i)
            _blockOfInstr[i] = block.id;
        _blocks.push_back(block);
    }

    // Synthetic exit block.
    _exitBlock = static_cast<int>(_blocks.size());
    BasicBlock exit_block;
    exit_block.id = _exitBlock;
    exit_block.first = n; // empty: first > last
    exit_block.last = n - 1;
    _blocks.push_back(exit_block);

    // Wire block-level edges from the last instruction of each block.
    for (size_t b = 0; b + 1 < _blocks.size(); ++b) {
        BasicBlock &block = _blocks[b];
        const Instruction &last = method.instr(block.last);
        std::vector<int> succ_instrs = rawSuccs(method, block.last);
        if (last.op == Opcode::Return || last.op == Opcode::ReturnVoid ||
            last.op == Opcode::Throw) {
            block.succs.push_back(_exitBlock);
        } else if (succ_instrs.empty()) {
            // Falling off the end of the body.
            block.succs.push_back(_exitBlock);
        }
        for (int s : succ_instrs) {
            int sb = _blockOfInstr[s];
            if (std::find(block.succs.begin(), block.succs.end(), sb) ==
                block.succs.end()) {
                block.succs.push_back(sb);
            }
        }
    }
    for (auto &block : _blocks) {
        for (int s : block.succs)
            _blocks[s].preds.push_back(block.id);
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
    return rawSuccs(_method, instr_idx);
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
