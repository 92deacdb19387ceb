# debug_demo.s — self-contained vindexmac micro-kernel, pinned byte for
# byte by ctest: `imac_run run --timing` (debug_demo_timing.txt) and
# `imac_run run --dump-regs` at step 516 and at the ebreak
# (debug_demo_regs_516.txt, debug_demo_regs.txt).
#
# Memory starts zeroed, so the program first builds its own operands with
# scalar stores: four B rows at 0x8000 (pitch 64 bytes,
# B[row][j] = (row+1)*100 + j), the packed non-zero values [3, 5] of a
# 1:2-sparse A row at 0x8800, and their VRF indices [16, 18] at 0x8900.
# It then runs the Algorithm 2 inner loop — vmv.x.s index extract,
# vindexmac.vx MAC, vslide1down.vx — and stores C to 0x9000, where
# C[j] = 3*(100+j) + 5*(300+j) = 1800 + 8j (test_fsim checks B row 0 and C).
#
# `marker 1` sits right before the loop; step 516 is three instructions
# past it, after the first MAC.

    li   t0, 16
    vsetvli zero, t0, e32m1

    # ---- build B rows with scalar stores: B[row][j] = (row+1)*100 + j
    li   t1, 0x8000         # B base (row pointer)
    li   s0, 0              # row
b_rows:
    addi s3, s0, 1
    li   s2, 100
    mul  s4, s3, s2         # (row+1)*100
    li   s1, 0              # j
b_elems:
    add  s5, s4, s1         # element value
    slli s6, s1, 2
    add  s6, s6, t1
    sw   s5, 0(s6)
    addi s1, s1, 1
    li   s7, 16
    blt  s1, s7, b_elems
    addi t1, t1, 64
    addi s0, s0, 1
    li   s7, 4
    blt  s0, s7, b_rows

    # ---- packed A row 0: values [3, 5], VRF indices [16, 18]
    li   s8, 0x8800
    li   s9, 3
    sw   s9, 0(s8)
    li   s9, 5
    sw   s9, 4(s8)
    li   s8, 0x8900
    li   s9, 16
    sw   s9, 0(s8)
    li   s9, 18
    sw   s9, 4(s8)

    # ---- preload B rows into the VRF (v16..v19)
    li   t1, 0x8000
    vle32.v v16, (t1)
    addi t1, t1, 64
    vle32.v v17, (t1)
    addi t1, t1, 64
    vle32.v v18, (t1)
    addi t1, t1, 64
    vle32.v v19, (t1)

    li   t2, 0x8800
    vle32.v v4, (t2)        # values:  [3, 5, 0, ...]
    li   t3, 0x8900
    vle32.v v8, (t3)        # col_idx: [16, 18, 0, ...]

    vmv.v.i v0, 0           # C accumulator
    li   s11, 48879         # 0xbeef sentinel: known x-reg value at the marker

    marker 1                # loop entry
loop:                       # two non-zeros in this row
    vmv.x.s t4, v8          # index -> scalar register
    vindexmac.vx v0, v4, t4 # C += value * VRF[t4]
    vslide1down.vx v4, v4, zero
    vslide1down.vx v8, v8, zero
    addi t5, t5, 1
    li   t6, 2
    blt  t5, t6, loop

    li   a0, 0x9000
    vse32.v v0, (a0)        # store C row: C[j] = 1800 + 8j
    ebreak
