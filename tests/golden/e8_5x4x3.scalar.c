/* generated vector permutation kernel
 * target: scalar (portable vector-extension lowering)  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 20)  map (inner-first): (1, 0)
 * shuffle steps: 2  block registers: 4  utilization: 5/8
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
typedef uint64_t vp_elem_t;
typedef vp_elem_t vp_v __attribute__((vector_size(16)));
static inline vp_v vp_ld(const vp_elem_t *p) { vp_v v; memcpy(&v, p, sizeof v); return v; }
static inline void vp_st(vp_elem_t *p, vp_v v) { memcpy(p, &v, sizeof v); }
static void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 24; *bd += 8; return; }
    i[0] = 0; *bs -= 24; *bd -= 8;
}
static void vp_adv_1(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 3) { *bs += 24; *bd += 8; return; }
    i[0] = 2; *bs -= 0; *bd -= 0;
}
void permute_0b7ebc1c8a96524f(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    { /* loop main: 2 iterations, unroll 1 */
        int64_t vp_i[1] = {0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            __builtin_prefetch(dst + vp_bd + 0, 1);
            __builtin_prefetch(dst + vp_bd + 20, 1);
            __builtin_prefetch(dst + vp_bd + 27, 1);
            __builtin_prefetch(dst + vp_bd + 40, 1);
            vp_v x0 = vp_ld(src + s0_s + 0);
            vp_v x1 = vp_ld(src + s0_s + 2);
            vp_v x2 = vp_ld(src + s0_s + 4);
            vp_v x3 = vp_ld(src + s0_s + 6);
            vp_v x4 = __builtin_shufflevector(x1, x2, 1, 2);
            vp_v x5 = __builtin_shufflevector(x2, x3, 1, 2);
            vp_v x6 = vp_ld(src + s0_s + 6);
            vp_v x7 = vp_ld(src + s0_s + 8);
            vp_v x8 = vp_ld(src + s0_s + 10);
            vp_v x9 = vp_ld(src + s0_s + 12);
            vp_v x10 = __builtin_shufflevector(x7, x8, 1, 2);
            vp_v x11 = __builtin_shufflevector(x8, x9, 1, 2);
            vp_v x24 = __builtin_shufflevector(x0, x6, 0, 2);
            vp_v x25 = __builtin_shufflevector(x1, x7, 0, 2);
            vp_v x26 = __builtin_shufflevector(x4, x10, 0, 2);
            vp_v x27 = __builtin_shufflevector(x5, x11, 0, 2);
            vp_v x28 = __builtin_shufflevector(x0, x6, 1, 3);
            vp_v x30 = __builtin_shufflevector(x4, x10, 1, 3);
            vp_v x40 = __builtin_shufflevector(x24, x26, 0, 2);
            vp_v x41 = __builtin_shufflevector(x24, x26, 1, 3);
            vp_v x44 = __builtin_shufflevector(x25, x27, 0, 2);
            vp_v x45 = __builtin_shufflevector(x25, x27, 1, 3);
            vp_v x48 = __builtin_shufflevector(x28, x30, 0, 2);
            vp_v x49 = __builtin_shufflevector(x28, x30, 1, 3);
            vp_st(dst + s0_d + 0, x40);
            vp_st(dst + s0_d + 2, x41);
            vp_st(dst + s0_d + 20, x48);
            vp_st(dst + s0_d + 22, x49);
            vp_st(dst + s0_d + 40, x44);
            vp_st(dst + s0_d + 42, x45);
            vp_v x12 = vp_ld(src + s0_s + 12);
            vp_v x13 = vp_ld(src + s0_s + 14);
            vp_v x14 = vp_ld(src + s0_s + 16);
            vp_v x15 = vp_ld(src + s0_s + 18);
            vp_v x16 = __builtin_shufflevector(x13, x14, 1, 2);
            vp_v x17 = __builtin_shufflevector(x14, x15, 1, 2);
            vp_v x18 = vp_ld(src + s0_s + 18);
            vp_v x19 = vp_ld(src + s0_s + 20);
            vp_v x20 = vp_ld(src + s0_s + 22);
            vp_v x21 = vp_ld(src + s0_s + 24);
            vp_v x22 = __builtin_shufflevector(x19, x20, 1, 2);
            vp_v x23 = __builtin_shufflevector(x20, x21, 1, 2);
            vp_v x32 = __builtin_shufflevector(x12, x18, 0, 2);
            vp_v x33 = __builtin_shufflevector(x13, x19, 0, 2);
            vp_v x34 = __builtin_shufflevector(x16, x22, 0, 2);
            vp_v x35 = __builtin_shufflevector(x17, x23, 0, 2);
            vp_v x36 = __builtin_shufflevector(x12, x18, 1, 3);
            vp_v x38 = __builtin_shufflevector(x16, x22, 1, 3);
            vp_v x42 = __builtin_shufflevector(x32, x34, 0, 2);
            vp_v x43 = __builtin_shufflevector(x32, x34, 1, 3);
            vp_v x46 = __builtin_shufflevector(x33, x35, 0, 2);
            vp_v x47 = __builtin_shufflevector(x33, x35, 1, 3);
            vp_v x50 = __builtin_shufflevector(x36, x38, 0, 2);
            vp_v x51 = __builtin_shufflevector(x36, x38, 1, 3);
            vp_st(dst + s0_d + 4, x42);
            vp_st(dst + s0_d + 6, x43);
            vp_st(dst + s0_d + 24, x50);
            vp_st(dst + s0_d + 26, x51);
            vp_st(dst + s0_d + 44, x46);
            vp_st(dst + s0_d + 46, x47);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {2};
        int64_t vp_bs = 48, vp_bd = 16;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            vp_v x0 = vp_ld(src + s0_s + 0);
            vp_v x1 = vp_ld(src + s0_s + 2);
            vp_v x2 = vp_ld(src + s0_s + 4);
            vp_v x3 = vp_ld(src + s0_s + 6);
            vp_v x4 = __builtin_shufflevector(x1, x2, 1, 2);
            vp_v x5 = __builtin_shufflevector(x2, x3, 1, 2);
            vp_v x6 = vp_ld(src + s0_s + 6);
            vp_v x7 = vp_ld(src + s0_s + 8);
            vp_v x8 = vp_ld(src + s0_s + 10);
            vp_v x9 = vp_ld(src + s0_s + 12);
            vp_v x10 = __builtin_shufflevector(x7, x8, 1, 2);
            vp_v x11 = __builtin_shufflevector(x8, x9, 1, 2);
            vp_v x12 = __builtin_shufflevector(x0, x6, 0, 2);
            vp_v x13 = __builtin_shufflevector(x1, x7, 0, 2);
            vp_v x14 = __builtin_shufflevector(x4, x10, 0, 2);
            vp_v x15 = __builtin_shufflevector(x5, x11, 0, 2);
            vp_v x16 = __builtin_shufflevector(x0, x6, 1, 3);
            vp_v x18 = __builtin_shufflevector(x4, x10, 1, 3);
            vp_v x20 = __builtin_shufflevector(x12, x14, 0, 2);
            vp_v x21 = __builtin_shufflevector(x12, x14, 1, 3);
            vp_v x24 = __builtin_shufflevector(x13, x15, 0, 2);
            vp_v x25 = __builtin_shufflevector(x13, x15, 1, 3);
            vp_v x28 = __builtin_shufflevector(x16, x18, 0, 2);
            vp_v x29 = __builtin_shufflevector(x16, x18, 1, 3);
            vp_st(dst + s0_d + 0, x20);
            vp_st(dst + s0_d + 2, x21);
            vp_st(dst + s0_d + 20, x28);
            vp_st(dst + s0_d + 22, x29);
            vp_st(dst + s0_d + 40, x24);
            vp_st(dst + s0_d + 42, x25);
        }
    }
}
