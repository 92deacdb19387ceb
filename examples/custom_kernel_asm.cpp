// Custom kernel in text assembly: write a vindexmac micro-kernel by hand,
// assemble it, show the disassembly, and execute it on the functional
// simulator. Demonstrates the ISA-extension workflow end to end (the
// paper's toolchain modification, reproduced in-library).
#include <cstdio>

#include "asm/text_assembler.h"
#include "fsim/machine.h"

int main() {
  using namespace indexmac;

  // C[0,:] += A[0,0]*B[0,:] + A[0,2]*B[2,:] for a 1:2-sparse row of A with
  // B rows preloaded in v16..v19. The col_idx values (16, 18) are VRF
  // register numbers, precomputed as Section III describes.
  const std::string source = R"(
      li   t0, 16
      vsetvli zero, t0, e32m1

      # preload 4 rows of B from 0x2000 (pitch 64 bytes)
      li   t1, 0x2000
      vle32.v v16, (t1)
      addi t1, t1, 64
      vle32.v v17, (t1)
      addi t1, t1, 64
      vle32.v v18, (t1)
      addi t1, t1, 64
      vle32.v v19, (t1)

      # load the packed non-zero values and VRF indices of A's row 0
      li   t2, 0x1000
      vle32.v v4, (t2)        # values:  [a00, a02, ...]
      li   t3, 0x1100
      vle32.v v8, (t3)        # col_idx: [16, 18, ...]

      vmv.v.i v0, 0           # C accumulator

  loop:                        # two non-zeros in this row
      vmv.x.s t4, v8          # index -> scalar register
      vindexmac.vx v0, v4, t4 # C += value * VRF[t4]
      vslide1down.vx v4, v4, zero
      vslide1down.vx v8, v8, zero
      addi t5, t5, 1
      li   t6, 2
      blt  t5, t6, loop

      li   a0, 0x3000
      vse32.v v0, (a0)        # store C row
      ebreak
  )";

  const Program program = assemble_text(source);
  std::printf("assembled %zu instructions; disassembly:\n%s\n", program.size(),
              program.listing().c_str());

  MainMemory mem;
  // A row 0 = [3, 0, 5, 0] in 1:2 blocks -> values [3,5], indices [v16,v18].
  mem.write_i32s(0x1000, std::vector<std::int32_t>{3, 5});
  mem.write_i32s(0x1100, std::vector<std::int32_t>{16, 18});
  for (std::int32_t row = 0; row < 4; ++row) {
    std::vector<std::int32_t> b(16);
    for (int j = 0; j < 16; ++j) b[j] = (row + 1) * 100 + j;
    mem.write_i32s(0x2000 + row * 64, b);
  }

  Machine machine(program, mem);
  const StopReason stop = machine.run();
  std::printf("execution stopped: %s after %llu instructions\n",
              stop == StopReason::kEbreak ? "ebreak" : "other",
              static_cast<unsigned long long>(machine.instructions_retired()));

  const auto c = mem.read_i32s(0x3000, 16);
  std::printf("C[0,:] = ");
  for (int j = 0; j < 16; ++j) std::printf("%d ", c[j]);
  std::printf("\n(expected element j: 3*(100+j) + 5*(300+j) = %d + 8j)\n", 3 * 100 + 5 * 300);
  return 0;
}
