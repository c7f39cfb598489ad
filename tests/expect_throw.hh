/**
 * @file
 * expectThrowWith<E>(fn, needle): the typed-error counterpart of
 * EXPECT_DEATH(stmt, regex). Bad input throws a typed error instead
 * of ending the process, so a test checks the type and that the
 * message still names what was wrong.
 */

#ifndef NEUMMU_TESTS_EXPECT_THROW_HH
#define NEUMMU_TESTS_EXPECT_THROW_HH

#include <gtest/gtest.h>

#include <string>

/** Expect @p fn to throw an @p E whose what() contains @p needle. */
template <typename E, typename Fn>
void
expectThrowWith(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        ADD_FAILURE() << "no exception; expected one naming '" << needle
                      << "'";
    } catch (const E &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "'" << e.what() << "' does not name '" << needle << "'";
    }
}

#endif // NEUMMU_TESTS_EXPECT_THROW_HH
