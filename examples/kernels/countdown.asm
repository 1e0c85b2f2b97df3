// Minimal countdown kernel: a data-independent loop followed by a
// store — handy for first contact with the CLI tools:
//   rm-inspect examples/kernels/countdown.asm --policy baseline
.kernel countdown
.ctaThreads 64
.gridCtas 30
    movi r0, 100
loop:
    movi r1, 1
    isub r0, r0, r1
    bra.nz r0, -> loop
    sreg r2, %sreg0       // CTA id
    st.global r2, r0
    exit
