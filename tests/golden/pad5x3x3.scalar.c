/* generated vector permutation kernel
 * target: scalar (portable vector-extension lowering)  width: 256 bits  elem: 4 B  lanes: 8
 * shape (inner-first): (3, 3, 5)  map (inner-first): (2, 1, 0)
 * shuffle steps: 3  block registers: 8  utilization: 45/128
 * buffers need one vector width of writable slack past the data;
 * aligned accesses, when present, assume vector-aligned buffer bases
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
typedef vp_elem_t vp_v __attribute__((vector_size(16), unused));
#define VP_REG(r) r##_0, r##_1
#define VP_LOAD(d, p) do { memcpy(&d##_0, (p) + 0, sizeof(vp_v)); memcpy(&d##_1, (p) + 4, sizeof(vp_v)); } while (0)
#define VP_STORE(p, s) do { vp_v vp_s[2] = {s##_0, s##_1}; memcpy((p), vp_s, sizeof(vp_s)); } while (0)
#define VP_SHUF0(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = __builtin_shufflevector(a##_0, a##_1, 3, 4, 5, 6); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF1(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 0, 4, 2, 6); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 0, 4, 2, 6); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF2(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 1, 5, 3, 7); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 1, 5, 3, 7); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF3(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_0, 0, 0, 2, 2); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_1, 0, 0, 2, 2); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF4(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_0, 1, 1, 3, 3); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_1, 1, 1, 3, 3); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF5(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 0, 1, 4, 5); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 0, 1, 4, 5); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF6(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 2, 3, 6, 7); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 2, 3, 6, 7); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF7(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_0, 0, 1, 0, 1); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_1, 0, 1, 0, 1); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF8(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_0, 2, 3, 2, 3); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_1, 2, 3, 2, 3); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF9(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = b##_0; d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF10(d, a, b) do { vp_v vp_t0 = a##_1; vp_v vp_t1 = b##_1; d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF11(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_0, 0, 4, 5, 6); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
#define VP_SHUF12(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 0, 5, 6, 7); d##_0 = vp_t0; d##_1 = vp_t1; } while (0)
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
        vp_v VP_REG(v0), VP_REG(v1), VP_REG(v2), VP_REG(v3), VP_REG(v4), VP_REG(v5), VP_REG(v6), VP_REG(v7);
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            VP_LOAD(v0, src + s0_s + 0);
            VP_LOAD(v1, src + s0_s + 9);
            VP_LOAD(v2, src + s0_s + 18);
            VP_LOAD(v3, src + s0_s + 27);
            VP_LOAD(v4, src + s0_s + 36);
            VP_SHUF0(v5, v0, v0);
            VP_SHUF0(v0, v1, v1);
            VP_SHUF0(v1, v2, v2);
            VP_SHUF0(v2, v3, v3);
            VP_SHUF0(v3, v4, v4);
            VP_SHUF1(v4, v5, v0);
            VP_SHUF2(v6, v5, v0);
            VP_SHUF1(v0, v1, v2);
            VP_SHUF2(v5, v1, v2);
            VP_SHUF3(v1, v3, v3);
            VP_SHUF4(v2, v3, v3);
            VP_SHUF5(v3, v4, v0);
            VP_SHUF6(v7, v4, v0);
            VP_SHUF5(v0, v6, v5);
            VP_SHUF7(v4, v1, v1);
            VP_SHUF8(v5, v1, v1);
            VP_SHUF7(v1, v2, v2);
            VP_SHUF9(v2, v3, v4);
            VP_SHUF10(v6, v3, v4);
            VP_SHUF9(v3, v7, v5);
            VP_SHUF10(v4, v7, v5);
            VP_SHUF9(v5, v0, v1);
            VP_SHUF10(v7, v0, v1);
            VP_SHUF11(v0, v2, v6);
            VP_STORE(dst + s0_d + 0, v0);
            VP_LOAD(v0, dst + s0_d + 5);
            VP_SHUF12(v1, v6, v0);
            VP_STORE(dst + s0_d + 5, v1);
            VP_SHUF11(v0, v5, v7);
            VP_STORE(dst + s0_d + 15, v0);
            VP_LOAD(v0, dst + s0_d + 20);
            VP_SHUF12(v1, v7, v0);
            VP_STORE(dst + s0_d + 20, v1);
            VP_SHUF11(v0, v3, v4);
            VP_STORE(dst + s0_d + 30, v0);
            VP_LOAD(v0, dst + s0_d + 35);
            VP_SHUF12(v1, v4, v0);
            VP_STORE(dst + s0_d + 35, v1);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {1};
        int64_t vp_bs = 6, vp_bd = 10;
        int64_t s0_s = 0, s0_d = 0;
        vp_v VP_REG(v0), VP_REG(v1), VP_REG(v2), VP_REG(v3), VP_REG(v4), VP_REG(v5), VP_REG(v6), VP_REG(v7);
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            VP_LOAD(v0, src + s0_s + 0);
            VP_LOAD(v1, src + s0_s + 9);
            VP_LOAD(v2, src + s0_s + 18);
            VP_LOAD(v3, src + s0_s + 27);
            VP_LOAD(v4, src + s0_s + 36);
            VP_SHUF0(v5, v0, v0);
            VP_SHUF0(v0, v1, v1);
            VP_SHUF0(v1, v2, v2);
            VP_SHUF0(v2, v3, v3);
            VP_SHUF0(v3, v4, v4);
            VP_SHUF1(v4, v5, v0);
            VP_SHUF2(v6, v5, v0);
            VP_SHUF1(v0, v1, v2);
            VP_SHUF2(v5, v1, v2);
            VP_SHUF3(v1, v3, v3);
            VP_SHUF4(v2, v3, v3);
            VP_SHUF5(v3, v4, v0);
            VP_SHUF6(v7, v4, v0);
            VP_SHUF5(v0, v6, v5);
            VP_SHUF7(v4, v1, v1);
            VP_SHUF8(v5, v1, v1);
            VP_SHUF7(v1, v2, v2);
            VP_SHUF9(v2, v3, v4);
            VP_SHUF9(v3, v7, v5);
            VP_SHUF9(v4, v0, v1);
            VP_LOAD(v0, dst + s0_d + 0);
            VP_SHUF12(v1, v2, v0);
            VP_STORE(dst + s0_d + 0, v1);
            VP_LOAD(v0, dst + s0_d + 15);
            VP_SHUF12(v1, v4, v0);
            VP_STORE(dst + s0_d + 15, v1);
            VP_LOAD(v0, dst + s0_d + 30);
            VP_SHUF12(v1, v3, v0);
            VP_STORE(dst + s0_d + 30, v1);
        }
    }
}
