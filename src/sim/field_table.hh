/**
 * @file
 * Field tables: each struct member is declared once, and every site
 * that must touch all members walks that declaration.
 *
 * A struct opts in with a static `forEachField(f)` that passes one
 * row per member, in declaration order, to visitFields(). A config
 * row is a bare member pointer; a metric row is a MetricField, which
 * adds the CSV column names and the fleet merge rule. The cache key,
 * the cache payload, the fleet merge and the sweep CSVs are generated
 * from these rows. `static_assert(fieldTableCovers<S>())` beside the
 * struct fails the build when a member has no row.
 */

#ifndef SPK_SIM_FIELD_TABLE_HH
#define SPK_SIM_FIELD_TABLE_HH

#include <array>
#include <cstddef>
#include <string_view>

namespace spk
{

/** How DeviceArray::aggregate folds one metric across devices. */
enum class Merge
{
    Sum,
    Max,
    // Weighted means (keep contiguous, see isWeightedMean).
    /** Weighted by completed I/Os. On the latency quantiles this is a
     *  mean of per-device quantiles, not a fleet quantile. */
    IoWeightedMean,
    /** Weighted by I/Os times the read (write) share of bytes; the
     *  snapshot carries no separate read/write I/O counts. */
    ReadShareWeightedMean,
    WriteShareWeightedMean,
    MakespanWeightedMean,
    RequestsWeightedMean,
    /** The common value, or "mixed" when devices disagree. */
    SameOrMixed,
    /** Names a stream slice; slices merge by it. */
    Key,
    /** Stream slices, merged by Key in order of first appearance. */
    ByStreamName,
};

constexpr bool
isWeightedMean(Merge rule)
{
    return rule >= Merge::IoWeightedMean &&
           rule <= Merge::RequestsWeightedMean;
}

/** A metric row: member, CSV columns (one per array element; none
 *  for members the CSV omits) and merge rule. */
template <Merge Rule, typename S, typename T, std::size_t Width>
struct MetricField
{
    static constexpr Merge merge = Rule;
    static constexpr std::size_t width = Width;
    T S::*member;
    std::array<std::string_view, Width> columns;
};

template <Merge Rule, typename S, typename T, typename... Columns>
constexpr MetricField<Rule, S, T, sizeof...(Columns)>
metric(T S::*member, Columns... columns)
{
    return {member, {std::string_view(columns)...}};
}

template <typename F, typename... Rows>
constexpr void
visitFields(F &&f, const Rows &...rows)
{
    (f(rows), ...);
}

namespace detail
{

/** Converts to any member type; only used unevaluated. */
struct AnyMember
{
    template <typename T>
    operator T() const;
};

/** Member count of aggregate @p S: the longest brace list of
 *  AnyMember that still initializes it. */
template <typename S, typename... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { S{Init{}..., AnyMember{}}; })
        return memberCount<S, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

} // namespace detail

/** True when @p S's field table has exactly one row per member. */
template <typename S>
constexpr bool
fieldTableCovers()
{
    std::size_t rows = 0;
    S::forEachField([&rows](const auto &) { ++rows; });
    return rows == detail::memberCount<S>();
}

} // namespace spk

#endif // SPK_SIM_FIELD_TABLE_HH
