// Binary encoding and decoding between 32-bit RISC-V instruction words and
// the decoded Instruction form.
//
// All three read the instruction table (isa/op_table.h). Standard
// instructions follow the RISC-V unprivileged spec and RVV 1.0 encodings.
// Custom instructions:
//   * the vindexmac family and the SSR streaming MACs — OP-V, OPIVX
//     funct3, RVV-reserved funct6 0b110000..0b110111
//   * marker, ssrcfg, ssren — custom-0 opcode (0x0b), funct3 0, 1, 2
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "isa/isa.h"

namespace indexmac::isa {

/// Encodes `inst` to its 32-bit instruction word. Throws SimError for
/// out-of-range immediates or ops this subset cannot encode.
[[nodiscard]] std::uint32_t encode(const Instruction& inst);

/// Decodes one instruction word. Returns Op::kIllegal inside the result
/// (never throws) for words outside the supported subset; `error` (when
/// non-null) receives a diagnostic in that case.
[[nodiscard]] Instruction decode(std::uint32_t word, std::string* error = nullptr);

/// Renders a decoded instruction in the syntax the text assembler accepts,
/// e.g. "vindexmac.vx v2, v4, x7" or "lw x5, 16(x6)".
[[nodiscard]] std::string disassemble(const Instruction& inst);

}  // namespace indexmac::isa
