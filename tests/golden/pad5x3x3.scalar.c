/* generated vector permutation kernel
 * target: scalar (portable vector-extension lowering)  width: 256 bits  elem: 4 B  lanes: 8
 * shape (inner-first): (3, 3, 5)  map (inner-first): (2, 1, 0)
 * shuffle steps: 3  block registers: 8  utilization: 45/128
 * buffers need one vector width of writable slack past the data and no alignment
 */
#include <stdint.h>
#include <string.h>
#if defined(__has_builtin)
#if !__has_builtin(__builtin_shufflevector)
#error "vecperm portable kernels need GCC >= 12 or Clang"
#endif
#else
#error "vecperm portable kernels need GCC >= 12 or Clang"
#endif
typedef uint32_t vp_elem_t;
typedef vp_elem_t vp_v __attribute__((vector_size(16)));
static inline vp_v vp_ld(const vp_elem_t *p) { vp_v v; memcpy(&v, p, sizeof v); return v; }
static inline void vp_st(vp_elem_t *p, vp_v v) { memcpy(p, &v, sizeof v); }
static void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 1) { *bs += 6; *bd += 10; return; }
    i[0] = 0; *bs -= 0; *bd -= 0;
}
static void vp_adv_1(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 6; *bd += 10; return; }
    i[0] = 1; *bs -= 0; *bd -= 0;
}
void permute_660c920297505a38(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    { /* loop main: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            vp_v x0 = vp_ld(src + s0_s + 0);
            vp_v x1 = vp_ld(src + s0_s + 4);
            vp_v x2 = __builtin_shufflevector(x0, x1, 3, 4, 5, 6);
            vp_v x3 = vp_ld(src + s0_s + 9);
            vp_v x4 = vp_ld(src + s0_s + 13);
            vp_v x5 = __builtin_shufflevector(x3, x4, 3, 4, 5, 6);
            vp_v x6 = vp_ld(src + s0_s + 18);
            vp_v x7 = vp_ld(src + s0_s + 22);
            vp_v x8 = __builtin_shufflevector(x6, x7, 3, 4, 5, 6);
            vp_v x9 = vp_ld(src + s0_s + 27);
            vp_v x10 = vp_ld(src + s0_s + 31);
            vp_v x11 = __builtin_shufflevector(x9, x10, 3, 4, 5, 6);
            vp_v x12 = vp_ld(src + s0_s + 36);
            vp_v x13 = vp_ld(src + s0_s + 40);
            vp_v x14 = __builtin_shufflevector(x12, x13, 3, 4, 5, 6);
            vp_v x15 = __builtin_shufflevector(x0, x3, 0, 4, 1, 5);
            vp_v x16 = __builtin_shufflevector(x2, x5, 0, 4, 1, 5);
            vp_v x17 = __builtin_shufflevector(x0, x3, 2, 6, 3, 7);
            vp_v x18 = __builtin_shufflevector(x2, x5, 2, 6, 3, 7);
            vp_v x19 = __builtin_shufflevector(x6, x9, 0, 4, 1, 5);
            vp_v x20 = __builtin_shufflevector(x8, x11, 0, 4, 1, 5);
            vp_v x21 = __builtin_shufflevector(x6, x9, 2, 6, 3, 7);
            vp_v x22 = __builtin_shufflevector(x8, x11, 2, 6, 3, 7);
            vp_v x23 = __builtin_shufflevector(x12, x12, 0, 0, 1, 1);
            vp_v x24 = __builtin_shufflevector(x14, x14, 0, 0, 1, 1);
            vp_v x25 = __builtin_shufflevector(x12, x12, 2, 2, 3, 3);
            vp_v x26 = __builtin_shufflevector(x14, x14, 2, 2, 3, 3);
            vp_v x27 = __builtin_shufflevector(x15, x19, 0, 1, 4, 5);
            vp_v x28 = __builtin_shufflevector(x16, x20, 0, 1, 4, 5);
            vp_v x29 = __builtin_shufflevector(x15, x19, 2, 3, 6, 7);
            vp_v x30 = __builtin_shufflevector(x16, x20, 2, 3, 6, 7);
            vp_v x31 = __builtin_shufflevector(x17, x21, 0, 1, 4, 5);
            vp_v x32 = __builtin_shufflevector(x18, x22, 0, 1, 4, 5);
            vp_v x33 = __builtin_shufflevector(x23, x23, 0, 1, 0, 1);
            vp_v x34 = __builtin_shufflevector(x24, x24, 0, 1, 0, 1);
            vp_v x35 = __builtin_shufflevector(x23, x23, 2, 3, 2, 3);
            vp_v x36 = __builtin_shufflevector(x24, x24, 2, 3, 2, 3);
            vp_v x37 = __builtin_shufflevector(x25, x25, 0, 1, 0, 1);
            vp_v x38 = __builtin_shufflevector(x26, x26, 0, 1, 0, 1);
            vp_v x39 = __builtin_shufflevector(x33, x28, 0, 4, 5, 6);
            vp_st(dst + s0_d + 0, x27);
            vp_st(dst + s0_d + 4, x39);
            vp_v x43 = vp_ld(dst + s0_d + 9);
            vp_v x44 = __builtin_shufflevector(x34, x43, 0, 5, 6, 7);
            vp_st(dst + s0_d + 5, x28);
            vp_st(dst + s0_d + 9, x44);
            vp_v x47 = __builtin_shufflevector(x35, x30, 0, 4, 5, 6);
            vp_st(dst + s0_d + 15, x29);
            vp_st(dst + s0_d + 19, x47);
            vp_v x51 = vp_ld(dst + s0_d + 24);
            vp_v x52 = __builtin_shufflevector(x36, x51, 0, 5, 6, 7);
            vp_st(dst + s0_d + 20, x30);
            vp_st(dst + s0_d + 24, x52);
            vp_v x55 = __builtin_shufflevector(x37, x32, 0, 4, 5, 6);
            vp_st(dst + s0_d + 30, x31);
            vp_st(dst + s0_d + 34, x55);
            vp_v x59 = vp_ld(dst + s0_d + 39);
            vp_v x60 = __builtin_shufflevector(x38, x59, 0, 5, 6, 7);
            vp_st(dst + s0_d + 35, x32);
            vp_st(dst + s0_d + 39, x60);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {1};
        int64_t vp_bs = 6, vp_bd = 10;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            vp_v x0 = vp_ld(src + s0_s + 0);
            vp_v x3 = vp_ld(src + s0_s + 9);
            vp_v x6 = vp_ld(src + s0_s + 18);
            vp_v x9 = vp_ld(src + s0_s + 27);
            vp_v x15 = __builtin_shufflevector(x0, x3, 0, 4, 1, 5);
            vp_v x17 = __builtin_shufflevector(x0, x3, 2, 6, 3, 7);
            vp_v x19 = __builtin_shufflevector(x6, x9, 0, 4, 1, 5);
            vp_v x21 = __builtin_shufflevector(x6, x9, 2, 6, 3, 7);
            vp_v x27 = __builtin_shufflevector(x15, x19, 0, 1, 4, 5);
            vp_v x29 = __builtin_shufflevector(x15, x19, 2, 3, 6, 7);
            vp_v x31 = __builtin_shufflevector(x17, x21, 0, 1, 4, 5);
            vp_st(dst + s0_d + 0, x27);
            vp_st(dst + s0_d + 15, x29);
            vp_st(dst + s0_d + 30, x31);
            vp_v x12 = vp_ld(src + s0_s + 36);
            vp_v x23 = __builtin_shufflevector(x12, x12, 0, 0, 1, 1);
            vp_v x25 = __builtin_shufflevector(x12, x12, 2, 2, 3, 3);
            vp_v x33 = __builtin_shufflevector(x23, x23, 0, 1, 0, 1);
            vp_v x35 = __builtin_shufflevector(x23, x23, 2, 3, 2, 3);
            vp_v x37 = __builtin_shufflevector(x25, x25, 0, 1, 0, 1);
            vp_v x40 = vp_ld(dst + s0_d + 4);
            vp_v x41 = __builtin_shufflevector(x33, x40, 0, 5, 6, 7);
            vp_st(dst + s0_d + 4, x41);
            vp_v x45 = vp_ld(dst + s0_d + 19);
            vp_v x46 = __builtin_shufflevector(x35, x45, 0, 5, 6, 7);
            vp_st(dst + s0_d + 19, x46);
            vp_v x50 = vp_ld(dst + s0_d + 34);
            vp_v x51 = __builtin_shufflevector(x37, x50, 0, 5, 6, 7);
            vp_st(dst + s0_d + 34, x51);
        }
    }
}
