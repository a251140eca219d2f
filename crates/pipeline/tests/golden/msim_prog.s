# The program behind the pinned msim outputs in this directory: a loop
# with a store/load-use pair and a taken branch, one console MMIO store
# ("K") and ebreak with a0 = 3 + 2 + 1.
    li t0, 3
    li t1, 0x1000
    li a0, 0
loop:
    sw t0, 0(t1)
    lw t2, 0(t1)
    add a0, a0, t2
    addi t0, t0, -1
    bnez t0, loop
    li t3, 0xF0000000
    li t4, 75
    sw t4, 0(t3)
    ebreak
