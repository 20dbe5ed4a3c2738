/* generated vector permutation kernel
 * target: scalar (portable vector-extension lowering)  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 3, 3, 4)  map (inner-first): (0, 3, 2, 1)
 * shuffle steps: 1  block registers: 2  utilization: 27/64
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
static inline __attribute__((always_inline)) void vp_adv_0(int64_t *i, int64_t *bs, int64_t *bd) {
    if (++i[0] < 2) { *bs += 54; *bd += 6; return; }
    i[0] = 0; *bs -= 54; *bd -= 6;
    if (++i[1] < 2) { *bs += 6; *bd += 72; return; }
    i[1] = 0; *bs -= 6; *bd -= 72;
    if (++i[2] < 3) { *bs += 9; *bd += 12; return; }
    i[2] = 0; *bs -= 18; *bd -= 24;
}
void permute_cca5b2e5db2d3c06(const void *src_v, void *dst_v) {
    const vp_elem_t *src = (const vp_elem_t *)src_v;
    vp_elem_t *dst = (vp_elem_t *)dst_v;
    { /* interleaved walk: 6 outer steps x 2 blocks, phases main (6 trips), tail[d1] (6 trips) */
        int64_t vp_i[3] = {0, 0, 0};
        int64_t vp_bs = 0, vp_bd = 0;
        int64_t s0_s = 0, s0_d = 0;
        for (int64_t vp_ot = 0; vp_ot < 6; ++vp_ot) {
            if (vp_i[1] < 1) { /* phase main: 6 trips */
                for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
                    s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
                    __builtin_prefetch(dst + vp_bd + 0, 1);
                    __builtin_prefetch(dst + vp_bd + 7, 1);
                    __builtin_prefetch(dst + vp_bd + 36, 1);
                    __builtin_prefetch(dst + vp_bd + 43, 1);
                    vp_v x0 = vp_ld(src + s0_s + 0);
                    vp_st(dst + s0_d + 0, x0);
                    vp_v x1 = vp_ld(src + s0_s + 2);
                    vp_v x2 = vp_ld(src + s0_s + 4);
                    vp_v x3 = vp_ld(src + s0_s + 6);
                    vp_v x4 = __builtin_shufflevector(x1, x2, 1, 2);
                    vp_v x5 = __builtin_shufflevector(x2, x3, 1, 2);
                    vp_v x6 = vp_ld(src + s0_s + 27);
                    vp_v x7 = vp_ld(src + s0_s + 29);
                    vp_v x8 = vp_ld(src + s0_s + 31);
                    vp_v x9 = vp_ld(src + s0_s + 33);
                    vp_v x10 = __builtin_shufflevector(x7, x8, 1, 2);
                    vp_v x11 = __builtin_shufflevector(x8, x9, 1, 2);
                    vp_v x16 = __builtin_shufflevector(x1, x6, 0, 2);
                    vp_v x17 = __builtin_shufflevector(x6, x7, 1, 2);
                    vp_st(dst + s0_d + 2, x16);
                    vp_st(dst + s0_d + 4, x17);
                    vp_v x25 = __builtin_shufflevector(x5, x10, 0, 2);
                    vp_v x26 = __builtin_shufflevector(x10, x11, 1, 2);
                    vp_st(dst + s0_d + 36, x4);
                    vp_st(dst + s0_d + 38, x25);
                    vp_st(dst + s0_d + 40, x26);
                }
            } else { /* phase tail[d1]: 6 trips */
                for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
                    s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
                    __builtin_prefetch(dst + vp_bd + 0, 1);
                    __builtin_prefetch(dst + vp_bd + 7, 1);
                    vp_v x0 = vp_ld(src + s0_s + 0);
                    vp_st(dst + s0_d + 0, x0);
                    vp_v x1 = vp_ld(src + s0_s + 2);
                    vp_v x6 = vp_ld(src + s0_s + 27);
                    vp_v x7 = vp_ld(src + s0_s + 29);
                    vp_v x16 = __builtin_shufflevector(x1, x6, 0, 2);
                    vp_v x17 = __builtin_shufflevector(x6, x7, 1, 2);
                    vp_st(dst + s0_d + 2, x16);
                    vp_st(dst + s0_d + 4, x17);
                }
            }
        }
    }
}
