/* generated vector permutation kernel
 * target: scalar (portable vector-extension lowering)  width: 512 bits  elem: 8 B  lanes: 8
 * shape (inner-first): (3, 20)  map (inner-first): (1, 0)
 * shuffle steps: 2  block registers: 4  utilization: 5/8
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
typedef uint64_t vp_elem_t;
typedef vp_elem_t vp_v __attribute__((vector_size(16), unused));
#define VP_REG(r) r##_0, r##_1, r##_2, r##_3
#define VP_LOAD(d, p) do { memcpy(&d##_0, (p) + 0, sizeof(vp_v)); memcpy(&d##_1, (p) + 2, sizeof(vp_v)); memcpy(&d##_2, (p) + 4, sizeof(vp_v)); memcpy(&d##_3, (p) + 6, sizeof(vp_v)); } while (0)
#define VP_STORE(p, s) do { vp_v vp_s[4] = {s##_0, s##_1, s##_2, s##_3}; memcpy((p), vp_s, sizeof(vp_s)); } while (0)
#define VP_SHUF0(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = a##_1; vp_v vp_t2 = __builtin_shufflevector(a##_1, a##_2, 1, 2); vp_v vp_t3 = __builtin_shufflevector(a##_2, a##_3, 1, 2); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF1(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 0, 2); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 0, 2); vp_v vp_t2 = __builtin_shufflevector(a##_2, b##_2, 0, 2); vp_v vp_t3 = __builtin_shufflevector(a##_3, b##_3, 0, 2); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF2(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, b##_0, 1, 3); vp_v vp_t1 = __builtin_shufflevector(a##_1, b##_1, 1, 3); vp_v vp_t2 = __builtin_shufflevector(a##_2, b##_2, 1, 3); vp_v vp_t3 = __builtin_shufflevector(a##_3, b##_3, 1, 3); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF3(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_2, 0, 2); vp_v vp_t1 = __builtin_shufflevector(a##_0, a##_2, 1, 3); vp_v vp_t2 = __builtin_shufflevector(b##_0, b##_2, 0, 2); vp_v vp_t3 = __builtin_shufflevector(b##_0, b##_2, 1, 3); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF4(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_1, a##_3, 0, 2); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_3, 1, 3); vp_v vp_t2 = __builtin_shufflevector(b##_1, b##_3, 0, 2); vp_v vp_t3 = __builtin_shufflevector(b##_1, b##_3, 1, 3); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF5(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_0, a##_2, 0, 2); vp_v vp_t1 = __builtin_shufflevector(a##_0, a##_2, 1, 3); vp_v vp_t2 = __builtin_shufflevector(a##_0, a##_2, 0, 2); vp_v vp_t3 = __builtin_shufflevector(a##_0, a##_2, 1, 3); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF6(d, a, b) do { vp_v vp_t0 = __builtin_shufflevector(a##_1, a##_3, 0, 2); vp_v vp_t1 = __builtin_shufflevector(a##_1, a##_3, 1, 3); vp_v vp_t2 = __builtin_shufflevector(a##_1, a##_3, 0, 2); vp_v vp_t3 = __builtin_shufflevector(a##_1, a##_3, 1, 3); d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
#define VP_SHUF7(d, a, b) do { vp_v vp_t0 = a##_0; vp_v vp_t1 = a##_1; vp_v vp_t2 = b##_2; vp_v vp_t3 = b##_3; d##_0 = vp_t0; d##_1 = vp_t1; d##_2 = vp_t2; d##_3 = vp_t3; } while (0)
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
        vp_v VP_REG(v0), VP_REG(v1), VP_REG(v2), VP_REG(v3), VP_REG(v4), VP_REG(v5);
        for (int64_t vp_it = 0; vp_it < 2; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_0(vp_i, &vp_bs, &vp_bd);
            __builtin_prefetch(dst + vp_bd + 0, 1);
            __builtin_prefetch(dst + vp_bd + 20, 1);
            __builtin_prefetch(dst + vp_bd + 27, 1);
            __builtin_prefetch(dst + vp_bd + 40, 1);
            VP_LOAD(v0, src + s0_s + 0);
            VP_LOAD(v1, src + s0_s + 6);
            VP_LOAD(v2, src + s0_s + 12);
            VP_LOAD(v3, src + s0_s + 18);
            VP_SHUF0(v4, v0, v0);
            VP_SHUF0(v0, v1, v1);
            VP_SHUF0(v1, v2, v2);
            VP_SHUF0(v2, v3, v3);
            VP_SHUF1(v3, v4, v0);
            VP_SHUF2(v5, v4, v0);
            VP_SHUF1(v0, v1, v2);
            VP_SHUF2(v4, v1, v2);
            VP_SHUF3(v1, v3, v0);
            VP_SHUF4(v2, v3, v0);
            VP_SHUF3(v0, v5, v4);
            VP_STORE(dst + s0_d + 0, v1);
            VP_STORE(dst + s0_d + 20, v0);
            VP_STORE(dst + s0_d + 40, v2);
        }
    }
    { /* loop tail[d1]: 1 iterations, unroll 1 */
        int64_t vp_i[1] = {2};
        int64_t vp_bs = 48, vp_bd = 16;
        int64_t s0_s = 0, s0_d = 0;
        vp_v VP_REG(v0), VP_REG(v1), VP_REG(v2), VP_REG(v3), VP_REG(v4);
        for (int64_t vp_it = 0; vp_it < 1; ++vp_it) {
            s0_s = vp_bs; s0_d = vp_bd; vp_adv_1(vp_i, &vp_bs, &vp_bd);
            VP_LOAD(v0, src + s0_s + 0);
            VP_LOAD(v1, src + s0_s + 6);
            VP_SHUF0(v2, v0, v0);
            VP_SHUF0(v0, v1, v1);
            VP_SHUF1(v1, v2, v0);
            VP_SHUF2(v3, v2, v0);
            VP_SHUF5(v0, v1, v1);
            VP_SHUF6(v2, v1, v1);
            VP_SHUF5(v1, v3, v3);
            VP_LOAD(v3, dst + s0_d + 0);
            VP_SHUF7(v4, v0, v3);
            VP_STORE(dst + s0_d + 0, v4);
            VP_LOAD(v0, dst + s0_d + 20);
            VP_SHUF7(v3, v1, v0);
            VP_STORE(dst + s0_d + 20, v3);
            VP_LOAD(v0, dst + s0_d + 40);
            VP_SHUF7(v1, v2, v0);
            VP_STORE(dst + s0_d + 40, v1);
        }
    }
}
