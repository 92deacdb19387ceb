// An executable program image: a base address plus 32-bit instruction
// words, with a pre-decoded view both simulators execute from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/encoding.h"
#include "isa/isa.h"

namespace indexmac {

/// Immutable instruction stream loaded at a fixed base address.
class Program {
 public:
  Program() = default;

  /// Builds a program from raw words; decodes every word eagerly and throws
  /// SimError if any word is outside the supported subset.
  Program(std::uint64_t base, std::vector<std::uint32_t> words);

  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t end() const { return base_ + 4 * words_.size(); }
  [[nodiscard]] std::size_t size() const { return words_.size(); }
  [[nodiscard]] bool contains(std::uint64_t pc) const {
    return pc >= base_ && pc < end() && (pc & 3) == 0;
  }

  /// Decoded instruction at `pc`; throws if pc is outside the program.
  [[nodiscard]] const isa::Instruction& at(std::uint64_t pc) const;

  [[nodiscard]] const std::vector<std::uint32_t>& words() const { return words_; }
  [[nodiscard]] const std::vector<isa::Instruction>& decoded() const { return decoded_; }

  /// Full listing ("<addr>: <word>  <disassembly>"), for debugging/examples.
  [[nodiscard]] std::string listing() const;

 private:
  std::uint64_t base_ = 0;
  std::vector<std::uint32_t> words_;
  std::vector<isa::Instruction> decoded_;
};

}  // namespace indexmac
