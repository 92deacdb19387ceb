#include "asm/program.h"

#include <cstdio>
#include <sstream>

#include "common/error.h"

namespace indexmac {

Program::Program(std::uint64_t base, std::vector<std::uint32_t> words)
    : base_(base), words_(std::move(words)) {
  IMAC_CHECK((base & 3) == 0, "program base must be 4-byte aligned");
  decoded_.reserve(words_.size());
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::string err;
    isa::Instruction inst = isa::decode(words_[i], &err);
    IMAC_CHECK(inst.op != isa::Op::kIllegal,
               "word " + std::to_string(i) + " does not decode: " + err);
    decoded_.push_back(inst);
  }
}

const isa::Instruction& Program::at(std::uint64_t pc) const {
  IMAC_CHECK(contains(pc), "pc outside program: " + std::to_string(pc));
  return decoded_[(pc - base_) / 4];
}

std::string Program::listing() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    char head[32];
    std::snprintf(head, sizeof head, "%08llx: %08x  ",
                  static_cast<unsigned long long>(base_ + 4 * i), words_[i]);
    out << head << isa::disassemble(decoded_[i]) << '\n';
  }
  return out.str();
}

}  // namespace indexmac
