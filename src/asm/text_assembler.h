// A small text-form assembler for the supported subset, accepting the same
// syntax that isa::disassemble() emits plus labels, comments, and ABI
// register names. Useful for examples and for writing kernels by hand.
#pragma once

#include <cstdint>
#include <string>

#include "asm/program.h"

namespace indexmac {

/// Assembles `source` (one instruction or "label:" per line; '#' and "//"
/// comments). Throws SimError with a line-numbered message on any error.
[[nodiscard]] Program assemble_text(const std::string& source, std::uint64_t base = 0x1000);

/// Renders `program` as re-assemblable source: branch/jal targets become
/// synthesized "L<n>" labels (the text assembler accepts only symbolic
/// targets), everything else is plain disassembly. For any program,
/// assemble_text(program_to_source(p), p.base()) reproduces the original
/// instruction words bit-exactly (tests/test_kernel_roundtrip.cpp).
[[nodiscard]] std::string program_to_source(const Program& program);

}  // namespace indexmac
